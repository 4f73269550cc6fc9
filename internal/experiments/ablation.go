package experiments

import (
	"fmt"
	"sort"
	"time"

	"distbound/internal/approx"
	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/raster"
	"distbound/internal/rs"
	"distbound/internal/sfc"
)

// AblApprox quantifies §2.1/§2.2: the quality of the classical
// approximations against the raster approximations, measured as false-area
// ratio (dead space) and Hausdorff distance. It makes the paper's core
// observation concrete: only raster approximations have a geometry-
// independent, tunable distance bound; the MBR's Hausdorff distance is
// data-dependent and can be arbitrarily large.
func AblApprox(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	d := data.CityDomain()
	curve := sfc.Hilbert{}
	polys := data.Neighborhoods(cfg.Seed + 11)
	sample := polys
	if len(sample) > 24 {
		sample = sample[:24]
	}
	const bound = 64.0 // raster distance bound (meters) for UR/HR rows
	urLevel, err := raster.BoundLevel(d, bound)
	if err != nil {
		return nil, err
	}

	kinds := []struct {
		name  string
		build func(p *geom.Polygon) (approx.Geometry, error)
	}{
		{"MBR", func(p *geom.Polygon) (approx.Geometry, error) { return approx.MBR(p), nil }},
		{"RMBR", func(p *geom.Polygon) (approx.Geometry, error) { return approx.RMBR(p), nil }},
		{"MBC", func(p *geom.Polygon) (approx.Geometry, error) { return approx.MBC(p), nil }},
		{"CH", func(p *geom.Polygon) (approx.Geometry, error) { return approx.CH(p), nil }},
		{"5-C", func(p *geom.Polygon) (approx.Geometry, error) { return approx.NCorner(p, 5), nil }},
		{"CBR", func(p *geom.Polygon) (approx.Geometry, error) { return approx.CBR(p), nil }},
		{"UR(64m)", func(p *geom.Polygon) (approx.Geometry, error) { return approx.UR(p, d, curve, urLevel), nil }},
		{"HR(64m)", func(p *geom.Polygon) (approx.Geometry, error) { return approx.HR(p, d, curve, bound) }},
	}

	t := &Table{
		Title:  "§2.1/§2.2: approximation quality (neighborhood polygons)",
		Header: []string{"approx", "ø false-area", "ø Hausdorff", "max Hausdorff", "bounded?"},
	}
	for _, k := range kinds {
		var sumFA, sumH, maxH float64
		for _, p := range sample {
			g, err := k.build(p)
			if err != nil {
				return nil, err
			}
			q := approx.Measure(p, g, 24)
			sumFA += q.FalseAreaRatio
			sumH += q.Hausdorff
			if q.Hausdorff > maxH {
				maxH = q.Hausdorff
			}
		}
		n := float64(len(sample))
		bounded := "data-dependent"
		if k.name == "UR(64m)" || k.name == "HR(64m)" {
			bounded = fmt.Sprintf("guaranteed ≤ %gm", bound)
		}
		t.AddRow(k.name,
			fmt.Sprintf("%.3f", sumFA/n),
			fmt.Sprintf("%.1fm", sumH/n),
			fmt.Sprintf("%.1fm", maxH),
			bounded,
		)
	}
	t.AddNote("%d polygons sampled; Hausdorff estimated with 24m boundary sampling; raster rows honor their bound by construction", len(sample))
	return t, nil
}

// AblCurve compares the two linearization curves of §3: a Hilbert curve
// produces fewer, longer runs per cover than Z-order (better locality), and
// the downstream learned index probes fewer ranges per query.
func AblCurve(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	d := data.CityDomain()
	polys := data.Neighborhoods(cfg.Seed + 11)
	pts, _ := data.TaxiPoints(cfg.Seed, cfg.NumPoints)

	t := &Table{
		Title:  "§3: linearization ablation — Morton (Z-order) vs Hilbert",
		Header: []string{"curve", "ø ranges/cover", "spline points", "lookup time/query"},
	}
	for _, curve := range []sfc.Curve{sfc.Morton{}, sfc.Hilbert{}} {
		// Cover fragmentation at a fixed budget.
		var totalRanges int
		covers := make([][]raster.PosRange, len(polys))
		for i, p := range polys {
			covers[i] = raster.CoverBudget(p, d, curve, 256).Ranges()
			totalRanges += len(covers[i])
		}

		keys := make([]uint64, len(pts))
		for i, p := range pts {
			keys[i], _ = d.LeafPos(curve, p)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		idx := rs.Build(keys, rs.DefaultRadixBits, rs.DefaultSplineError)

		var sink int64
		dur := timeIt(func() {
			for _, ranges := range covers {
				for _, r := range ranges {
					sink += int64(idx.CountRange(r.Lo, r.Hi))
				}
			}
		})
		_ = sink

		t.AddRow(curve.Name(),
			fmt.Sprintf("%.1f", float64(totalRanges)/float64(len(polys))),
			fmt.Sprintf("%d", idx.NumSplinePoints()),
			fmtDur(dur/time.Duration(len(polys))),
		)
	}
	t.AddNote("256-cell covers over %d neighborhood polygons; %d point keys", len(polys), len(pts))
	return t, nil
}
