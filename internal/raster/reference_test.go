package raster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// The reference descent: the hierarchical rasterization as it stood before
// the descent carried coordinates and emitted in curve order. It decodes
// every cell's coordinates from level 0, allocates a candidate list per
// partial cell, decides edge-free cells by Region.ContainsPoint over every
// ring edge, and sorts cells and ranges at the end. It is the oracle the live
// descent is held to cell for cell; nothing outside this file may call it.

func refHierarchicalAtLevel(rg geom.Region, d sfc.Domain, curve sfc.Curve, maxLevel int, mode Mode) *Approximation {
	a := &Approximation{Domain: d, Curve: curve}
	cl := newClassifier(rg)

	var rec func(id sfc.CellID, cand []int32)
	rec = func(id sfc.CellID, cand []int32) {
		rel, sub := refRelate(cl, d.CellIDRect(curve, id), cand)
		switch rel {
		case geom.RectOutside:
			return
		case geom.RectInside:
			a.Interior = append(a.Interior, id)
		case geom.RectPartial:
			if id.Level() >= maxLevel {
				if mode == Centroid && !rg.ContainsPoint(d.CellIDRect(curve, id).Center()) {
					return
				}
				a.Boundary = append(a.Boundary, id)
				return
			}
			for _, ch := range id.Children() {
				rec(ch, sub)
			}
		}
	}
	rec(sfc.FromPosLevel(0, 0), cl.rootCand(nil))
	slices.Sort(a.Interior) // emission order is not assumed sorted
	slices.Sort(a.Boundary)
	return a
}

func refRelate(cl *classifier, rect geom.Rect, cand []int32) (geom.RectRelation, []int32) {
	if cl.generic() {
		return cl.region.RelateRect(rect), nil
	}
	var sub []int32
	for _, ei := range cand {
		if !rect.Intersects(cl.bounds[ei]) {
			continue
		}
		if rect.IntersectsSegment(cl.edges[ei]) {
			sub = append(sub, ei)
		}
	}
	if len(sub) > 0 {
		return geom.RectPartial, sub
	}
	if cl.region.ContainsPoint(rect.Center()) {
		return geom.RectInside, nil
	}
	return geom.RectOutside, nil
}

// refRanges is Ranges as it was: every cell's range copied out, sorted by
// its low end and coalesced.
func refRanges(a *Approximation) []PosRange {
	raw := make([]PosRange, 0, a.NumCells())
	for _, id := range a.Cells() {
		lo, hi := id.LeafPosRange()
		raw = append(raw, PosRange{lo, hi})
	}
	return MergeRanges(raw)
}

// checkDescent holds the live descent to the reference on one input.
func checkDescent(t *testing.T, label string, rg geom.Region, d sfc.Domain, curve sfc.Curve, level int, mode Mode) {
	t.Helper()
	got := HierarchicalAtLevel(rg, d, curve, level, mode)
	want := refHierarchicalAtLevel(rg, d, curve, level, mode)
	if !slices.Equal(got.Interior, want.Interior) {
		t.Errorf("%s: interior differs: %d cells, reference %d", label, len(got.Interior), len(want.Interior))
	}
	if !slices.Equal(got.Boundary, want.Boundary) {
		t.Errorf("%s: boundary differs: %d cells, reference %d", label, len(got.Boundary), len(want.Boundary))
	}
	if !slices.Equal(got.Ranges(), refRanges(want)) {
		t.Errorf("%s: ranges differ: %d, reference %d", label, len(got.Ranges()), len(refRanges(want)))
	}
}

func TestDescentMatchesReference(t *testing.T) {
	// The benchmark's own partition at its own bounds, and one beyond.
	t.Run("partition", func(t *testing.T) {
		d := data.CityDomain()
		stride := 1
		if testing.Short() {
			stride = 16
		}
		for seed := int64(1); seed <= 3; seed++ {
			polys := data.Partition(seed, 16, 16, 12)
			for _, eps := range []float64{4, 8, 16, 64} {
				t.Run(fmt.Sprintf("seed=%d/e%g", seed, eps), func(t *testing.T) {
					t.Parallel()
					for ri := 0; ri < len(polys); ri += stride {
						checkDescent(t, fmt.Sprintf("region %d", ri), polys[ri], d, sfc.Hilbert{}, d.LevelForBound(eps), Conservative)
					}
				})
			}
		}
	})

	d := mustDomain(t, geom.Pt(0, 0), 64) // level 6: unit cells, centres at k+½
	rng := rand.New(rand.NewSource(22))
	shapes := map[string]geom.Region{
		"star": randomStar(rng, geom.Pt(30, 34), 6, 25, 17),
		"holes": geom.MustPolygon(
			geom.Ring{geom.Pt(5.3, 6.1), geom.Pt(58.2, 4.7), geom.Pt(60.9, 57.4), geom.Pt(31.7, 61.2), geom.Pt(3.8, 55.5)},
			geom.Ring{geom.Pt(12.2, 12.9), geom.Pt(26.4, 14.1), geom.Pt(24.8, 29.3), geom.Pt(13.6, 27.7)},
			// A hole on the grid: its boundary, cell corners and cell
			// centres coincide, so the hole-boundary-is-inside rule decides.
			geom.Ring{geom.Pt(36, 36), geom.Pt(48.5, 36), geom.Pt(48.5, 48.5), geom.Pt(36, 48.5)},
		),
		"multi": geom.NewMultiPolygon(
			randomStar(rng, geom.Pt(16, 16), 4, 11, 9),
			randomStar(rng, geom.Pt(45, 40), 5, 16, 13),
			geom.MustPolygon(
				geom.Ring{geom.Pt(6, 40), geom.Pt(26, 40), geom.Pt(26, 60), geom.Pt(6, 60)},
				geom.Ring{geom.Pt(10.5, 44.5), geom.Pt(20.5, 44.5), geom.Pt(20.5, 54.5), geom.Pt(10.5, 54.5)},
			),
		),
		// Half of it lies outside the domain square.
		"clipped": randomStar(rng, geom.Pt(58, 3), 8, 30, 15),
		// Vertices on grid lines and on cell corners at several levels
		// ((16, 48), (8, 32), (40, 8)); a horizontal edge at a row of
		// centres' Y (y = 20.5); a vertical and a diagonal edge through cell
		// centres, ending in vertices that are cell centres ((24.5, 30.5),
		// (34.5, 40.5)) — the boundary-counts-as-inside path.
		"degenerate": geom.MustPolygon(geom.Ring{
			geom.Pt(8, 8), geom.Pt(40, 8), geom.Pt(40, 20.5), geom.Pt(24.5, 20.5),
			geom.Pt(24.5, 30.5), geom.Pt(34.5, 40.5), geom.Pt(16, 48), geom.Pt(8, 32),
		}),
		"circle": geom.Circle{Center: geom.Pt(30, 30), Radius: 17}, // rings inaccessible
	}
	for name, rg := range shapes {
		for _, curve := range testCurves {
			for _, mode := range []Mode{Conservative, Centroid} {
				for _, level := range []int{0, 1, 4, 6, 8} {
					checkDescent(t, fmt.Sprintf("%s/%s/%v/L%d", name, curve.Name(), mode, level), rg, d, curve, level, mode)
				}
			}
		}
	}
}

// TestHierarchicalAllocs guards the descent's allocation shape: the
// classifier and the locator's buckets once per region (a few per ring
// edge), one candidate block, and the amortized growth of the output lists —
// nothing per cell, where the reference allocates a candidate list for every
// partial one.
func TestHierarchicalAllocs(t *testing.T) {
	d := data.CityDomain()
	rg := data.Partition(1, 16, 16, 12)[100]
	level := d.LevelForBound(8)
	ref := testing.AllocsPerRun(1, func() {
		refRanges(refHierarchicalAtLevel(rg, d, sfc.Hilbert{}, level, Conservative))
	})
	got := testing.AllocsPerRun(5, func() {
		HierarchicalAtLevel(rg, d, sfc.Hilbert{}, level, Conservative).Ranges()
	})
	t.Logf("%.0f allocations; the reference descent makes %.0f", got, ref)
	const ceiling = 320
	if got > ceiling {
		t.Errorf("HierarchicalAtLevel and Ranges allocate %.0f times, ceiling %d", got, ceiling)
	}
}
