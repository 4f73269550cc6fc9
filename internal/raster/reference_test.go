package raster

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// Two oracles hold the set descent. The per-region descent is the
// rasterization as it stood before the set descent: one classifier per
// region, its ring edges in ring order, each region walking the quadtree on
// its own. The reference descent is older still: it decodes every cell's
// coordinates from level 0, allocates a candidate list per partial cell, tests
// cell against edge by the four-sides definition rather than
// geom.Rect.IntersectsSegment, decides edge-free cells by Region.ContainsPoint
// over every ring edge, and sorts cells and ranges at the end. Nothing outside
// this file may call either.

// perRegionClassifier is the per-region descent's classifier: one region's
// ring edges, in ring order, and its locator.
type perRegionClassifier struct {
	region   geom.Region
	contains func(geom.Point) bool
	edges    []geom.Segment
	bounds   []geom.Rect
}

func newPerRegionClassifier(rg geom.Region) *perRegionClassifier {
	cl := &perRegionClassifier{region: rg}
	for _, p := range geom.Polygons(rg) {
		for _, ring := range p.Rings() {
			for i := range ring {
				e := ring.Edge(i)
				cl.edges = append(cl.edges, e)
				cl.bounds = append(cl.bounds, e.Bounds())
			}
		}
	}
	cl.contains = rg.ContainsPoint
	if loc := geom.NewPointLocator(rg); loc != nil {
		cl.contains = loc.ContainsPoint
	}
	return cl
}

func (cl *perRegionClassifier) generic() bool { return cl.edges == nil }

func (cl *perRegionClassifier) rootCand(dst []int32) []int32 {
	for i := range cl.edges {
		dst = append(dst, int32(i))
	}
	return dst
}

func (cl *perRegionClassifier) relate(rect geom.Rect, cand, dst []int32) (geom.RectRelation, []int32) {
	if cl.generic() {
		return cl.region.RelateRect(rect), dst
	}
	for _, ei := range cand {
		if rect.Intersects(cl.bounds[ei]) && rect.IntersectsSegment(cl.edges[ei]) {
			dst = append(dst, ei)
		}
	}
	if len(dst) > 0 {
		return geom.RectPartial, dst
	}
	if cl.contains(rect.Center()) {
		return geom.RectInside, dst
	}
	return geom.RectOutside, dst
}

// perRegionDescend is the per-region descent: every cell of one region's
// approximation handed to emit in ascending curve order, flagged interior or
// boundary.
func perRegionDescend(rg geom.Region, d sfc.Domain, curve sfc.Curve, maxLevel int, mode Mode, emit func(id sfc.CellID, interior bool)) {
	cl := newPerRegionClassifier(rg)
	n := len(cl.edges)
	blocks := make([]int32, (maxLevel+2)*n)

	var visit func(id sfc.CellID, level int, x, y uint32, st uint8, cand []int32)
	visit = func(id sfc.CellID, level int, x, y uint32, st uint8, cand []int32) {
		rect := d.CellRect(x, y, level)
		rel, sub := cl.relate(rect, cand, blocks[(level+1)*n:(level+1)*n:(level+2)*n])
		switch rel {
		case geom.RectInside:
			emit(id, true)
		case geom.RectPartial:
			if level >= maxLevel {
				if mode == Centroid && !cl.contains(rect.Center()) {
					return
				}
				emit(id, false)
				return
			}
			for digit, ch := range id.Children() {
				dx, dy, next := curve.Step(st, digit)
				visit(ch, level+1, x<<1|dx, y<<1|dy, next, sub)
			}
		}
	}
	visit(sfc.FromPosLevel(0, 0), 0, 0, 0, 0, cl.rootCand(blocks[:0]))
}

// perRegion is one run of the per-region descent: its interior and boundary
// cells in curve order, and its range sinks — all of its cells, its interior
// cells and its boundary cells, each coalesced into leaf ranges as they
// arrive. checkDescent and checkSet both read it, so one run serves both.
type perRegion struct {
	interior, boundary []sfc.CellID
	all, in, bd        []PosRange
}

func descend(rg geom.Region, d sfc.Domain, curve sfc.Curve, maxLevel int, mode Mode) perRegion {
	var p perRegion
	perRegionDescend(rg, d, curve, maxLevel, mode, func(id sfc.CellID, in bool) {
		p.all = appendCell(p.all, id)
		if in {
			p.interior = append(p.interior, id)
			p.in = appendCell(p.in, id)
		} else {
			p.boundary = append(p.boundary, id)
			p.bd = appendCell(p.bd, id)
		}
	})
	return p
}

// descendEach runs the conservative per-region descent once per region: what
// checkSet holds the set descent to.
func descendEach(regions []geom.Region, d sfc.Domain, curve sfc.Curve, level int) []perRegion {
	out := make([]perRegion, len(regions))
	for ri, rg := range regions {
		out[ri] = descend(rg, d, curve, level, Conservative)
	}
	return out
}

// appendCell coalesces a cell arriving in ascending curve order into out.
func appendCell(out []PosRange, id sfc.CellID) []PosRange {
	lo, hi := id.LeafPosRange()
	if n := len(out); n > 0 && lo == out[n-1].Hi+1 {
		out[n-1].Hi = hi
		return out
	}
	return append(out, PosRange{lo, hi})
}

// ownerRanges flattens covers into each owner's ranges, coalescing across
// the seams between pieces.
func ownerRanges(covers []Cover) [][]PosRange {
	out := make([][]PosRange, len(covers))
	for o, c := range covers {
		for _, p := range c {
			for _, r := range p {
				if n := len(out[o]); n > 0 && r.Lo == out[o][n-1].Hi+1 {
					out[o][n-1].Hi = r.Hi
				} else {
					out[o] = append(out[o], r)
				}
			}
		}
	}
	return out
}

// checkSet holds both range sinks of the set descent over regions to the
// per-region descent of each region (want, from descendEach), at one level:
// the plain sink on one worker, the kind sink on three.
func checkSet(t *testing.T, label string, regions []geom.Region, d sfc.Domain, curve sfc.Curve, level int, want []perRegion) {
	t.Helper()
	all, err := CoverRanges(context.Background(), regions, d, curve, level, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	kinds, err := CoverRanges(context.Background(), regions, d, curve, level, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	gotAll, gotKinds := ownerRanges(all), ownerRanges(kinds)
	for ri, w := range want {
		if !slices.Equal(gotAll[ri], w.all) {
			t.Errorf("%s: region %d: %d ranges, per-region descent %d", label, ri, len(gotAll[ri]), len(w.all))
		}
		if !slices.Equal(gotKinds[2*ri], w.in) || !slices.Equal(gotKinds[2*ri+1], w.bd) {
			t.Errorf("%s: region %d: %d interior and %d boundary ranges, per-region descent %d and %d",
				label, ri, len(gotKinds[2*ri]), len(gotKinds[2*ri+1]), len(w.in), len(w.bd))
		}
	}
}

func refHierarchicalAtLevel(rg geom.Region, d sfc.Domain, curve sfc.Curve, maxLevel int, mode Mode) *Approximation {
	a := &Approximation{Domain: d, Curve: curve}
	cl := newPerRegionClassifier(rg)

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

func refRelate(cl *perRegionClassifier, rect geom.Rect, cand []int32) (geom.RectRelation, []int32) {
	if cl.generic() {
		return cl.region.RelateRect(rect), nil
	}
	var sub []int32
	for _, ei := range cand {
		if !rect.Intersects(cl.bounds[ei]) {
			continue
		}
		if refIntersectsSegment(rect, cl.edges[ei]) {
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

// refIntersectsSegment is the four-sides definition of a closed rect meeting
// a segment, kept apart from geom.Rect.IntersectsSegment, which the live
// descent calls: the rect holds an endpoint, or one of its sides Intersects e.
// Like the live predicate it answers for e's canonical endpoint order.
func refIntersectsSegment(rect geom.Rect, e geom.Segment) bool {
	e = e.Canonical()
	if rect.ContainsPoint(e.A) || rect.ContainsPoint(e.B) {
		return true
	}
	for _, side := range rect.Edges() {
		if side.Intersects(e) {
			return true
		}
	}
	return false
}

// refRanges is Ranges as it was: every cell's range copied out, sorted by
// its low end and coalesced.
func refRanges(a *Approximation) []PosRange {
	raw := make([]PosRange, 0, a.NumCells())
	for _, id := range slices.Concat(a.Interior, a.Boundary) {
		lo, hi := id.LeafPosRange()
		raw = append(raw, PosRange{lo, hi})
	}
	slices.SortFunc(raw, func(x, y PosRange) int { return cmp.Compare(x.Lo, y.Lo) })
	var out []PosRange
	for _, r := range raw {
		if n := len(out); n > 0 && (r.Lo <= out[n-1].Hi || r.Lo == out[n-1].Hi+1) {
			out[n-1].Hi = max(out[n-1].Hi, r.Hi)
			continue
		}
		out = append(out, r)
	}
	return out
}

// checkDescent holds the live descent, and per — the per-region descent of
// the same input — to the reference on one input.
func checkDescent(t *testing.T, label string, rg geom.Region, d sfc.Domain, curve sfc.Curve, level int, mode Mode, per perRegion) {
	t.Helper()
	got := HierarchicalAtLevel(rg, d, curve, level, mode)
	want := refHierarchicalAtLevel(rg, d, curve, level, mode)
	if !slices.Equal(got.Interior, want.Interior) {
		t.Errorf("%s: interior differs: %d cells, reference %d", label, len(got.Interior), len(want.Interior))
	}
	if !slices.Equal(got.Boundary, want.Boundary) {
		t.Errorf("%s: boundary differs: %d cells, reference %d", label, len(got.Boundary), len(want.Boundary))
	}
	wantRanges := refRanges(want)
	if !slices.Equal(got.Ranges(), wantRanges) {
		t.Errorf("%s: ranges differ: %d, reference %d", label, len(got.Ranges()), len(wantRanges))
	}
	if !slices.Equal(per.interior, want.Interior) || !slices.Equal(per.boundary, want.Boundary) {
		t.Errorf("%s: the per-region descent differs from the reference", label)
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
					regions, level := data.Regions(polys), d.LevelForBound(eps)
					per := descendEach(regions, d, sfc.Hilbert{}, level)
					for ri := 0; ri < len(polys); ri += stride {
						checkDescent(t, fmt.Sprintf("region %d", ri), polys[ri], d, sfc.Hilbert{}, level, Conservative, per[ri])
					}
					checkSet(t, "the partition", regions, d, sfc.Hilbert{}, level, per)
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
					checkDescent(t, fmt.Sprintf("%s/%s/%v/L%d", name, curve.Name(), mode, level), rg, d, curve, level, mode,
						descend(rg, d, curve, level, mode))
				}
			}
			for _, level := range []int{0, 3, 4, 5, 8} {
				regions := []geom.Region{rg}
				checkSet(t, fmt.Sprintf("%s/%s/L%d", name, curve.Name(), level), regions, d, curve, level, descendEach(regions, d, curve, level))
			}
		}
	}
}

// TestSetDescentMatchesPerRegion holds the set descent over the paper's region
// sets — partitions whose neighbours share every edge — to each region's own
// descent, at ε 4, 16 and 64 (16 and 64 under -short).
func TestSetDescentMatchesPerRegion(t *testing.T) {
	d := data.CityDomain()
	for name, polys := range map[string][]*geom.Polygon{
		"neighborhoods": data.Neighborhoods(3),
		"boroughs":      data.Boroughs(3),
		"census":        data.Census(13, 400),
	} {
		for _, eps := range []float64{4, 16, 64} {
			if testing.Short() && eps < 16 {
				continue
			}
			t.Run(fmt.Sprintf("%s/e%g", name, eps), func(t *testing.T) {
				t.Parallel()
				regions, level := data.Regions(polys), d.LevelForBound(eps)
				checkSet(t, name, regions, d, sfc.Hilbert{}, level, descendEach(regions, d, sfc.Hilbert{}, level))
			})
		}
	}
}

// TestHierarchicalAllocs guards the descent's allocation shape: the segment
// table and the locator's buckets once per region, a few slices per depth,
// and the amortized growth of the output lists — nothing per cell, where the
// reference allocates a candidate list for every partial one.
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

// TestHierarchicalRangesBytes pins the cover build's range sink to memory in
// proportion to a region's ranges, not its cells: on one benchmark region at
// ε 8 it allocates under a ceiling the cell lists alone would break, so a
// change that materializes Interior and Boundary on that path again fails.
func TestHierarchicalRangesBytes(t *testing.T) {
	d := data.CityDomain()
	rg := []geom.Region{data.Partition(1, 16, 16, 12)[100]}
	level := d.LevelForBound(8)
	var c []Cover
	got := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if c, err = CoverRanges(context.Background(), rg, d, sfc.Hilbert{}, level, false, 1); err != nil {
				b.Fatal(err)
			}
		}
	}).AllocedBytesPerOp()
	t.Logf("%d B/op for %d ranges", got, len(ownerRanges(c)[0]))
	// Twice the 74,160 B the per-region range sink measured; through the
	// 10,014-cell lists the same ranges take 330,768 B.
	const ceiling = 148_000
	if got > ceiling {
		t.Errorf("the range sink allocates %d B/op, ceiling %d", got, ceiling)
	}
}

// The uniform raster's definition, as a flat scan: every cell of the level
// whose closed rectangle meets the region's bounding box, classified by
// Region.RelateRect alone, a boundary cell kept in Centroid mode only when
// its centre is in the region. No descent, no pruning, no candidate edges and
// no half-open window — the oracle Uniform is held to element for element;
// nothing outside this file may call it.
func refUniform(rg geom.Region, d sfc.Domain, curve sfc.Curve, level int, mode Mode) *Approximation {
	a := &Approximation{Domain: d, Curve: curve}
	bb := rg.Bounds()
	last := uint32(1)<<uint(level) - 1
	xMin, yMin, _ := d.Coord(bb.Min, level) // clamped to the domain
	xMax, yMax, _ := d.Coord(bb.Max, level)
	// One cell of margin: a closed cell whose edge lies on the box's edge.
	for y := max(yMin, 1) - 1; y <= min(yMax+1, last); y++ {
		for x := max(xMin, 1) - 1; x <= min(xMax+1, last); x++ {
			rect := d.CellRect(x, y, level)
			if !rect.Intersects(bb) {
				continue
			}
			switch rg.RelateRect(rect) {
			case geom.RectInside:
				a.Interior = append(a.Interior, sfc.FromXY(curve, x, y, level))
			case geom.RectPartial:
				if mode == Centroid && !rg.ContainsPoint(rect.Center()) {
					continue
				}
				a.Boundary = append(a.Boundary, sfc.FromXY(curve, x, y, level))
			}
		}
	}
	slices.Sort(a.Interior) // row-major scan order is not curve order
	slices.Sort(a.Boundary)
	return a
}

// leafCells counts the level cells a range list covers.
func leafCells(rs []PosRange, level int) int {
	n := uint64(0)
	for _, r := range rs {
		n += (r.Hi - r.Lo + 1)
	}
	return int(n >> uint(2*(sfc.MaxLevel-level)))
}

// checkUniform holds Uniform to its definition on one input.
func checkUniform(t *testing.T, label string, rg geom.Region, d sfc.Domain, curve sfc.Curve, level int, mode Mode) {
	t.Helper()
	got := Uniform(rg, d, curve, level, mode)
	want := refUniform(rg, d, curve, level, mode)
	if !slices.Equal(got.Interior, want.Interior) {
		t.Errorf("%s: interior differs: %d cells, definition %d", label, len(got.Interior), len(want.Interior))
	}
	if !slices.Equal(got.Boundary, want.Boundary) {
		t.Errorf("%s: boundary differs: %d cells, definition %d", label, len(got.Boundary), len(want.Boundary))
	}
}

// alignedSquare is the measure-zero input on which a half-open and a closed
// cell convention differ: every edge lies on a grid line of levels 2 to 4 of
// a 16-unit domain. Closed cells touch an edge from both sides, so the cells
// of the square and one ring around it all meet the boundary.
func alignedSquare() *geom.Polygon {
	return geom.MustPolygon(geom.Ring{geom.Pt(4, 4), geom.Pt(12, 4), geom.Pt(12, 12), geom.Pt(4, 12)})
}

// uniformCases runs check over the inputs the Uniform tests share: the
// benchmark's partition, the neighbourhood polygons, hand-built shapes and
// the grid-aligned square.
func uniformCases(t *testing.T, check func(t *testing.T, label string, rg geom.Region, d sfc.Domain, curve sfc.Curve, level int, mode Mode)) {
	modes := []Mode{Conservative, Centroid}
	stride := 1
	if testing.Short() {
		stride = 16
	}
	city := data.CityDomain()
	families := map[string]struct {
		polys  []*geom.Polygon
		levels []int
	}{
		"partition/seed=1": {data.Partition(1, 16, 16, 12), []int{6, 8, 10}},
		"partition/seed=2": {data.Partition(2, 16, 16, 12), []int{6, 8, 10}},
		"partition/seed=3": {data.Partition(3, 16, 16, 12), []int{6, 8, 10}},
		"neighborhoods/12": {data.Neighborhoods(12), []int{8, 10}},
	}
	for name, fam := range families {
		for _, level := range fam.levels {
			t.Run(fmt.Sprintf("%s/L%d", name, level), func(t *testing.T) {
				t.Parallel()
				for ri := 0; ri < len(fam.polys); ri += stride {
					for _, curve := range testCurves {
						for _, mode := range modes {
							check(t, fmt.Sprintf("region %d/%s/%v", ri, curve.Name(), mode), fam.polys[ri], city, curve, level, mode)
						}
					}
				}
			})
		}
	}

	d := mustDomain(t, geom.Pt(0, 0), 64)
	rng := rand.New(rand.NewSource(23))
	star := randomStar(rng, geom.Pt(30, 34), 6, 25, 17)
	shapes := map[string]geom.Region{
		"hole": geom.MustPolygon(
			geom.Ring{geom.Pt(5.3, 6.1), geom.Pt(58.2, 4.7), geom.Pt(60.9, 57.4), geom.Pt(31.7, 61.2), geom.Pt(3.8, 55.5)},
			geom.Ring{geom.Pt(36, 36), geom.Pt(48.5, 36), geom.Pt(48.5, 48.5), geom.Pt(36, 48.5)}, // on grid lines and on centres
		),
		"multi": geom.NewMultiPolygon( // disjoint parts: RelateRect's union and the even-odd rings agree
			randomStar(rng, geom.Pt(16, 16), 4, 11, 9),
			randomStar(rng, geom.Pt(45, 40), 5, 16, 13),
		),
		"clipped": randomStar(rng, geom.Pt(58, 3), 8, 30, 15), // half outside the domain
		"generic": wrappedRegion{star},                        // rings inaccessible: Region.RelateRect per cell
		"star":    star,
	}
	d16 := mustDomain(t, geom.Pt(0, 0), 16)
	for _, curve := range testCurves {
		for _, mode := range modes {
			for name, rg := range shapes {
				for _, level := range []int{0, 1, 4, 6, 7} {
					check(t, fmt.Sprintf("%s/%s/%v/L%d", name, curve.Name(), mode, level), rg, d, curve, level, mode)
				}
			}
			for _, level := range []int{2, 3, 4} {
				check(t, fmt.Sprintf("aligned square/%s/%v/L%d", curve.Name(), mode, level), alignedSquare(), d16, curve, level, mode)
			}
		}
	}
}

func TestUniformMatchesDefinition(t *testing.T) {
	uniformCases(t, checkUniform)
	d16 := mustDomain(t, geom.Pt(0, 0), 16)
	for level, want := range map[int]int{2: 16, 3: 36, 4: 100} {
		if got := Uniform(alignedSquare(), d16, sfc.Hilbert{}, level, Conservative).NumCells(); got != want {
			t.Errorf("aligned square at level %d: %d cells, want %d", level, got, want)
		}
	}
}

// TestUniformIsHierarchicalAtTheSameLevel is the property Figure 1 states:
// the uniform raster is the hierarchical one with its interior de-aggregated,
// the same leaf positions cell for cell. It fails on the aligned square for
// a rasterizer that breaks the grid-line tie differently in the two forms
// (the scanline one did: 9 cells against 16).
func TestUniformIsHierarchicalAtTheSameLevel(t *testing.T) {
	uniformCases(t, func(t *testing.T, label string, rg geom.Region, d sfc.Domain, curve sfc.Curve, level int, mode Mode) {
		t.Helper()
		ur := Uniform(rg, d, curve, level, mode)
		hr := HierarchicalAtLevel(rg, d, curve, level, mode).Ranges()
		if !slices.Equal(ur.Ranges(), hr) {
			t.Errorf("%s: Uniform covers %d ranges, HierarchicalAtLevel %d", label, len(ur.Ranges()), len(hr))
		}
		if n := leafCells(hr, level); ur.NumCells() != n {
			t.Errorf("%s: Uniform has %d cells, the hierarchical ranges hold %d", label, ur.NumCells(), n)
		}
	})
}

// FuzzUniformMatchesDefinition decodes a small polygon from bytes — two per
// vertex, quarter units on a 64-unit domain, an odd byte snapped to the
// nearest grid line of the level so the closed-cell tie is exercised about
// half the time — orders the vertices around their mean so the ring is
// (nearly always) simple, and holds Uniform to the flat scan. The committed
// corpus (testdata/fuzz) seeds it with the aligned square and one star.
func FuzzUniformMatchesDefinition(f *testing.F) {
	f.Fuzz(func(t *testing.T, verts []byte, lvl, flags uint8) {
		n := min(len(verts)/2, 16)
		if n < 3 {
			return
		}
		d := mustDomain(t, geom.Pt(0, 0), 64)
		level := int(lvl % 7)
		side := d.CellSide(level)
		coord := func(b byte) float64 {
			v := float64(b) / 4
			if b&1 == 1 {
				v = math.Round(v/side) * side
			}
			return v
		}
		ring := make(geom.Ring, n)
		var mean geom.Point
		for i := range ring {
			ring[i] = geom.Pt(coord(verts[2*i]), coord(verts[2*i+1]))
			mean = mean.Add(ring[i].Scale(1 / float64(n)))
		}
		angle := func(p geom.Point) float64 { return math.Atan2(p.Y-mean.Y, p.X-mean.X) }
		slices.SortFunc(ring, func(a, b geom.Point) int { return cmp.Compare(angle(a), angle(b)) })
		curve, mode := testCurves[flags&1], Mode(flags>>1&1)
		checkUniform(t, fmt.Sprintf("%v/%s/%v/L%d", ring, curve.Name(), mode, level), geom.MustPolygon(ring), d, curve, level, mode)
	})
}

// FuzzSetDescentMatchesPerRegion decodes a star from bytes as
// FuzzUniformMatchesDefinition does — two bytes per vertex on a 64-unit
// domain, an odd byte snapped to a grid line — and builds a region set around
// it: a jittered partition whose neighbours share their edges and whose
// border edges lie on grid lines, the star overlapping it, the star with a
// hole, the star with repeated vertices, a multi-polygon of a partition cell
// and the shifted star, and the star behind a non-polygon Region that takes
// the RelateRect fallback. Both range sinks of the set descent must equal
// each region's own descent at two levels. The committed corpus
// (testdata/fuzz) seeds it with a convex star, a grid-snapped one and one at
// the finest levels.
func FuzzSetDescentMatchesPerRegion(f *testing.F) {
	f.Fuzz(func(t *testing.T, verts []byte, lvl, flags uint8) {
		n := min(len(verts)/2, 16)
		if n < 3 {
			return
		}
		d := mustDomain(t, geom.Pt(0, 0), 64)
		level := int(lvl % 8)
		side := d.CellSide(level)
		ring := make(geom.Ring, n)
		var mean geom.Point
		for i := range ring {
			coord := func(b byte) float64 {
				if b&1 == 1 {
					return math.Round(float64(b)/4/side) * side
				}
				return float64(b) / 4
			}
			ring[i] = geom.Pt(coord(verts[2*i]), coord(verts[2*i+1]))
			mean = mean.Add(ring[i].Scale(1 / float64(n)))
		}
		angle := func(p geom.Point) float64 { return math.Atan2(p.Y-mean.Y, p.X-mean.X) }
		slices.SortFunc(ring, func(a, b geom.Point) int { return cmp.Compare(angle(a), angle(b)) })
		hole := make(geom.Ring, n)
		var repeated geom.Ring
		for i, p := range ring {
			hole[i] = mean.Add(p.Sub(mean).Scale(0.5))
			repeated = append(repeated, p)
			if i%3 == 0 {
				repeated = append(repeated, p)
			}
		}
		star := geom.MustPolygon(ring)
		seed := int64(0)
		for _, b := range verts {
			seed = seed*31 + int64(b)
		}
		part := data.PartitionIn(seed, geom.Rect{Min: geom.Pt(8, 8), Max: geom.Pt(56, 56)}, 1+int(flags%3), 2, int(flags>>2)%3)
		regions := append(data.Regions(part),
			star,
			geom.MustPolygon(ring, hole),
			geom.MustPolygon(repeated),
			geom.NewMultiPolygon(part[0], star.Translate(geom.Pt(7, -5))),
			wrappedRegion{star},
		)
		curve := testCurves[flags>>7]
		for _, l := range []int{level, level + 3} {
			checkSet(t, fmt.Sprintf("%v/%s/L%d", ring, curve.Name(), l), regions, d, curve, l, descendEach(regions, d, curve, l))
		}
	})
}
