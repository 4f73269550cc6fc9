package experiments

import (
	"fmt"
	"sort"

	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/index/kdtree"
	"distbound/internal/index/quadtree"
	"distbound/internal/index/rstar"
	"distbound/internal/index/sorted"
	"distbound/internal/join"
	"distbound/internal/raster"
	"distbound/internal/rs"
	"distbound/internal/sfc"
)

// Precision levels of Figure 4: cells per query polygon.
var fig4Precisions = []int{32, 128, 512}

// fig4Workload bundles everything Figure 4's two panels share.
type fig4Workload struct {
	pts     []geom.Point
	keys    []uint64 // sorted leaf positions of the points
	queries []*geom.Polygon
	covers  map[int][][]raster.PosRange // precision → per-query merged ranges
	exact   []int                       // per-query exact contained-point counts
	domain  sfc.Domain
	curve   sfc.Curve
}

func buildFig4Workload(cfg Config, withExact bool) *fig4Workload {
	w := &fig4Workload{domain: data.CityDomain(), curve: sfc.Hilbert{}}
	w.pts, _ = data.TaxiPoints(cfg.Seed, cfg.NumPoints)
	w.queries = data.Census(cfg.Seed+1, cfg.CensusCount)

	w.keys = make([]uint64, len(w.pts))
	for i, p := range w.pts {
		w.keys[i], _ = w.domain.LeafPos(w.curve, p)
	}
	sort.Slice(w.keys, func(i, j int) bool { return w.keys[i] < w.keys[j] })

	// Query covers are part of the (offline) polygon representation, as the
	// RS-based index stores linearized cells, not geometry.
	w.covers = make(map[int][][]raster.PosRange)
	for _, prec := range fig4Precisions {
		ranges := make([][]raster.PosRange, len(w.queries))
		for qi, q := range w.queries {
			ranges[qi] = raster.CoverBudget(q, w.domain, w.curve, prec).Ranges()
		}
		w.covers[prec] = ranges
	}

	if withExact {
		// Exact ground truth via a grid-bucketed PIP join.
		gj := join.NewGridJoiner(join.PointSet{Pts: w.pts}, data.CityBounds(), 256)
		res, err := gj.Aggregate(data.Regions(w.queries), join.Count)
		if err != nil {
			panic("experiments: exact fig4 ground truth: " + err.Error())
		}
		w.exact = make([]int, len(w.queries))
		for qi := range w.queries {
			w.exact[qi] = int(res.Counts[qi])
		}
	}
	return w
}

// rangeCount sums CountRange over a cover's ranges using any range-count
// index.
type rangeCounter interface {
	CountRange(lo, hi uint64) int
}

func coverCount(idx rangeCounter, ranges []raster.PosRange) int {
	n := 0
	for _, r := range ranges {
		n += idx.CountRange(r.Lo, r.Hi)
	}
	return n
}

// Fig4a reproduces Figure 4(a): cumulative time to count the points inside
// every query polygon, for the RS-based index at three precision levels,
// binary search at the highest precision, and three MBR-filtering spatial
// baselines (which are precision-agnostic).
func Fig4a(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	w := buildFig4Workload(cfg, false)

	t := &Table{
		Title:  "Figure 4(a): point-polygon containment query performance",
		Header: []string{"method", "cumulative time", "ns/query", "total qualifying"},
	}
	addRow := func(name string, run func() int64) {
		var total int64
		d := timeIt(func() { total = run() })
		t.AddRow(name,
			fmtDur(d),
			fmt.Sprintf("%d", d.Nanoseconds()/int64(len(w.queries))),
			fmt.Sprintf("%d", total),
		)
	}

	// Learned index over linearized cells.
	rsIdx := rs.Build(w.keys, rs.DefaultRadixBits, rs.DefaultSplineError)
	for _, prec := range fig4Precisions {
		ranges := w.covers[prec]
		addRow(fmt.Sprintf("RS-%d", prec), func() int64 {
			var total int64
			for qi := range w.queries {
				total += int64(coverCount(rsIdx, ranges[qi]))
			}
			return total
		})
	}

	// Binary search at the highest precision.
	col := sorted.NewFromSorted(w.keys)
	finest := w.covers[fig4Precisions[len(fig4Precisions)-1]]
	addRow(fmt.Sprintf("BS-%d", fig4Precisions[len(fig4Precisions)-1]), func() int64 {
		var total int64
		for qi := range w.queries {
			total += int64(coverCount(col, finest[qi]))
		}
		return total
	})

	// MBR-filtering spatial baselines over the raw points.
	ptItems := make([]rstar.Item, len(w.pts))
	for i, p := range w.pts {
		ptItems[i] = rstar.Item{Rect: geom.Rect{Min: p, Max: p}, ID: int32(i)}
	}
	rst := rstar.BulkLoad(ptItems, rstar.DefaultMaxEntries)
	addRow("R*-tree", func() int64 {
		var total int64
		for _, q := range w.queries {
			total += int64(rst.CountRect(q.Bounds()))
		}
		return total
	})

	qt := quadtree.Build(w.pts, nil)
	addRow("Quadtree", func() int64 {
		var total int64
		for _, q := range w.queries {
			total += int64(qt.CountRect(q.Bounds()))
		}
		return total
	})

	kd := kdtree.Build(w.pts, nil)
	addRow("Kd-tree", func() int64 {
		var total int64
		for _, q := range w.queries {
			total += int64(kd.CountRect(q.Bounds()))
		}
		return total
	})

	t.AddNote("%d points, %d query polygons, curve=%s; spatial baselines filter on the query MBR and are precision-agnostic",
		len(w.pts), len(w.queries), w.curve.Name())
	t.AddNote("R*-tree: STR bulk-loaded, standing in for the paper's bulk-loaded Boost R*-tree")
	t.AddNote("paper setup: 1.2B NYC taxi points, 39,200 census query polygons, RS radix bits 25, spline error 32")
	return t, nil
}

// Fig4b reproduces Figure 4(b): how many qualifying points each
// configuration returns relative to the exact answer — the precision side of
// the precision/performance sweet spot.
func Fig4b(cfg Config) (*Table, error) {
	cfg = cfg.WithDefaults()
	w := buildFig4Workload(cfg, true)

	var exactTotal int64
	for _, n := range w.exact {
		exactTotal += int64(n)
	}

	t := &Table{
		Title:  "Figure 4(b): qualifying points vs precision of the raster approximation",
		Header: []string{"method", "qualifying points", "vs exact"},
	}
	report := func(name string, total int64) {
		ratio := "n/a"
		if exactTotal > 0 {
			ratio = fmt.Sprintf("%.4fx", float64(total)/float64(exactTotal))
		}
		t.AddRow(name, fmt.Sprintf("%d", total), ratio)
	}

	report("exact (PIP)", exactTotal)

	col := sorted.NewFromSorted(w.keys)
	for _, prec := range fig4Precisions {
		var total int64
		for qi := range w.queries {
			total += int64(coverCount(col, w.covers[prec][qi]))
		}
		report(fmt.Sprintf("RS-%d", prec), total)
	}

	// MBR filtering (what the spatial baselines return without refinement).
	var mbrTotal int64
	kd := kdtree.Build(w.pts, nil)
	for _, q := range w.queries {
		mbrTotal += int64(kd.CountRect(q.Bounds()))
	}
	report("MBR filter", mbrTotal)

	t.AddNote("conservative covers: qualifying counts can only exceed the exact count; higher precision converges to exact")
	return t, nil
}
