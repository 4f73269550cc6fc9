package raster

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/sfc"
)

var testCurves = []sfc.Curve{sfc.Morton{}, sfc.Hilbert{}}

func mustDomain(t *testing.T, origin geom.Point, size float64) sfc.Domain {
	t.Helper()
	d, err := sfc.NewDomain(origin, size)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// randomStar builds a random star-shaped polygon around center.
func randomStar(rng *rand.Rand, center geom.Point, rMin, rMax float64, n int) *geom.Polygon {
	ring := make(geom.Ring, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		r := rMin + rng.Float64()*(rMax-rMin)
		ring[i] = geom.Pt(center.X+r*math.Cos(ang), center.Y+r*math.Sin(ang))
	}
	return geom.MustPolygon(ring)
}

func TestUniformAlignedSquare(t *testing.T) {
	d := mustDomain(t, geom.Pt(0, 0), 16)
	// A 4x4 square exactly covering cells (4..7, 4..7) at level 2 (cell side 4).
	p := geom.MustPolygon(geom.Ring{geom.Pt(4, 4), geom.Pt(12, 4), geom.Pt(12, 12), geom.Pt(4, 12)})
	a := Uniform(p, d, sfc.Morton{}, 2, Conservative)
	// Level 2: 4x4 cells of side 4, closed cells — the convention of the
	// hierarchical raster, RelateRect, the ACT and the cover sets: the edge on
	// grid line x=4 touches cells 0 and 1, the edge on x=12 cells 2 and 3, so
	// every cell of the level meets the boundary and none is interior. (The
	// scanline rasterizer this test was written for broke the tie half-open
	// and answered 9 cells, 1 interior — a different set from
	// HierarchicalAtLevel(2), which Figure 1 says it cannot be.)
	if got := a.NumCells(); got != 16 {
		t.Errorf("NumCells = %d, want 16", got)
	}
	if len(a.Interior) != 0 || len(a.Boundary) != 16 {
		t.Errorf("interior=%d boundary=%d, want 0/16", len(a.Interior), len(a.Boundary))
	}
	// At level 3 (cell side 2) the interior cells strictly inside are (3..5)^2 = 9... verify by probe.
	a3 := Uniform(p, d, sfc.Morton{}, 3, Conservative)
	for i := 0; i < 100; i++ {
		x := 4 + 8*float64(i%10)/10
		y := 4 + 8*float64(i/10)/10
		if !a3.ContainsPoint(geom.Pt(x, y)) {
			t.Errorf("conservative approx misses inside point (%g,%g)", x, y)
		}
	}
}

func TestUniformConservativeNoFalseNegatives(t *testing.T) {
	d := mustDomain(t, geom.Pt(-64, -64), 128)
	rng := rand.New(rand.NewSource(5))
	for _, curve := range testCurves {
		for trial := 0; trial < 10; trial++ {
			p := randomStar(rng, geom.Pt(0, 0), 10, 40, 5+rng.Intn(25))
			a := Uniform(p, d, curve, 7, Conservative)
			for i := 0; i < 500; i++ {
				pt := geom.Pt(rng.Float64()*128-64, rng.Float64()*128-64)
				if p.ContainsPoint(pt) && !a.ContainsPoint(pt) {
					t.Fatalf("%s trial %d: false negative at %v", curve.Name(), trial, pt)
				}
			}
		}
	}
}

func TestUniformFalsePositivesWithinBound(t *testing.T) {
	d := mustDomain(t, geom.Pt(-64, -64), 128)
	rng := rand.New(rand.NewSource(6))
	level := 8
	bound := d.CellDiagonal(level)
	for trial := 0; trial < 10; trial++ {
		p := randomStar(rng, geom.Pt(0, 0), 10, 40, 5+rng.Intn(25))
		a := Uniform(p, d, sfc.Morton{}, level, Conservative)
		for i := 0; i < 500; i++ {
			pt := geom.Pt(rng.Float64()*128-64, rng.Float64()*128-64)
			if a.ContainsPoint(pt) && !p.ContainsPoint(pt) {
				if dist := p.BoundaryDist(pt); dist > bound {
					t.Fatalf("trial %d: false positive at %v is %g from boundary, bound %g",
						trial, pt, dist, bound)
				}
			}
		}
	}
}

func TestUniformCentroidErrorsWithinBound(t *testing.T) {
	d := mustDomain(t, geom.Pt(-64, -64), 128)
	rng := rand.New(rand.NewSource(7))
	level := 8
	bound := d.CellDiagonal(level)
	for trial := 0; trial < 10; trial++ {
		p := randomStar(rng, geom.Pt(0, 0), 10, 40, 5+rng.Intn(25))
		a := Uniform(p, d, sfc.Morton{}, level, Centroid)
		for i := 0; i < 500; i++ {
			pt := geom.Pt(rng.Float64()*128-64, rng.Float64()*128-64)
			in, approx := p.ContainsPoint(pt), a.ContainsPoint(pt)
			if in != approx {
				if dist := p.BoundaryDist(pt); dist > bound {
					t.Fatalf("trial %d: %v misclassified (exact=%v approx=%v), %g from boundary, bound %g",
						trial, pt, in, approx, dist, bound)
				}
			}
		}
	}
}

func TestUniformModesRelationship(t *testing.T) {
	// Centroid cells are a subset of Conservative cells; both include all
	// fully-interior cells.
	d := mustDomain(t, geom.Pt(-64, -64), 128)
	rng := rand.New(rand.NewSource(8))
	p := randomStar(rng, geom.Pt(0, 0), 15, 40, 17)
	cons := Uniform(p, d, sfc.Morton{}, 7, Conservative)
	cent := Uniform(p, d, sfc.Morton{}, 7, Centroid)
	consSet := make(map[sfc.CellID]bool)
	for _, id := range slices.Concat(cons.Interior, cons.Boundary) {
		consSet[id] = true
	}
	for _, id := range slices.Concat(cent.Interior, cent.Boundary) {
		if !consSet[id] {
			t.Errorf("centroid cell %v not in conservative approximation", id)
		}
	}
	if len(cent.Interior) != len(cons.Interior) {
		t.Errorf("interior sets differ: %d vs %d", len(cent.Interior), len(cons.Interior))
	}
	if cent.NumCells() > cons.NumCells() {
		t.Error("centroid approximation larger than conservative")
	}
}

func TestHierarchicalDistanceBound(t *testing.T) {
	d := mustDomain(t, geom.Pt(0, 0), 1024)
	rng := rand.New(rand.NewSource(9))
	for _, eps := range []float64{4, 16, 64} {
		for trial := 0; trial < 5; trial++ {
			p := randomStar(rng, geom.Pt(512, 512), 50, 200, 7+rng.Intn(20))
			a, err := Hierarchical(p, d, sfc.Hilbert{}, eps, Conservative)
			if err != nil {
				t.Fatal(err)
			}
			if got := a.MaxCellDiagonal(); got > eps {
				t.Errorf("eps=%g: MaxCellDiagonal %g exceeds bound", eps, got)
			}
			// Direction 1: region ⊆ approximation (conservative), so the
			// directed distance from region samples to the approximation is 0.
			for _, s := range geom.SampleRegionBoundary(p, eps/3) {
				if !a.ContainsPoint(s) && a.DistToPoint(s) > 1e-9 {
					t.Fatalf("eps=%g: boundary sample %v outside conservative approx", eps, s)
				}
			}
			// Direction 2: every approximation point is within eps of the
			// region; the maximum is attained on the cell-union outline.
			got := geom.DirectedHausdorff(a.BoundarySamples(eps/4), p)
			if got > eps*1.0001 {
				t.Errorf("eps=%g trial %d: directed Hausdorff %g exceeds bound", eps, trial, got)
			}
		}
	}
}

func TestHierarchicalBoundaryLevels(t *testing.T) {
	d := mustDomain(t, geom.Pt(0, 0), 1024)
	rng := rand.New(rand.NewSource(10))
	p := randomStar(rng, geom.Pt(512, 512), 100, 300, 23)
	eps := 8.0
	want := d.LevelForBound(eps)
	a, err := Hierarchical(p, d, sfc.Morton{}, eps, Conservative)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range a.Boundary {
		if id.Level() != want {
			t.Errorf("boundary cell at level %d, want %d", id.Level(), want)
		}
	}
	coarser := 0
	for _, id := range a.Interior {
		if id.Level() > want {
			t.Errorf("interior cell finer than the bound level: %d", id.Level())
		}
		if id.Level() < want {
			coarser++
		}
	}
	if coarser == 0 {
		t.Error("expected some interior cells coarser than the boundary level")
	}
}

func TestHierarchicalCellsDisjoint(t *testing.T) {
	d := mustDomain(t, geom.Pt(0, 0), 1024)
	rng := rand.New(rand.NewSource(11))
	p := randomStar(rng, geom.Pt(512, 512), 100, 300, 12)
	a, err := Hierarchical(p, d, sfc.Morton{}, 16, Conservative)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, id := range slices.Concat(a.Interior, a.Boundary) {
		lo, hi := id.LeafPosRange()
		sum += hi - lo + 1
	}
	var merged uint64
	for _, r := range a.Ranges() {
		merged += (r.Hi - r.Lo + 1)
	}
	if sum != merged {
		t.Errorf("cells overlap: raw coverage %d vs merged %d", sum, merged)
	}
}

func TestHierarchicalTooSmallBound(t *testing.T) {
	d := mustDomain(t, geom.Pt(0, 0), 1e12)
	p := geom.MustPolygon(geom.Ring{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1)})
	if _, err := Hierarchical(p, d, sfc.Morton{}, 1e-6, Conservative); err == nil {
		t.Error("expected error for unreachable bound")
	}
}

func TestHierarchicalMatchesUniformAtLevel(t *testing.T) {
	// At a fixed level, HR's cell set equals UR's (HR just coalesces
	// interior cells): compare leaf coverage.
	d := mustDomain(t, geom.Pt(-64, -64), 128)
	rng := rand.New(rand.NewSource(12))
	p := randomStar(rng, geom.Pt(0, 0), 15, 40, 9)
	level := 7
	ur := Uniform(p, d, sfc.Morton{}, level, Conservative)
	hr := HierarchicalAtLevel(p, d, sfc.Morton{}, level, Conservative)
	if !rangesEqual(ur.Ranges(), hr.Ranges()) {
		t.Errorf("UR and HR coverage differ: %d vs %d ranges", len(ur.Ranges()), len(hr.Ranges()))
	}
	if len(hr.Interior) >= len(ur.Interior) && len(ur.Interior) > 4 {
		t.Errorf("HR did not coalesce interior cells: %d vs %d", len(hr.Interior), len(ur.Interior))
	}
}

func rangesEqual(a, b []PosRange) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCoverBudget(t *testing.T) {
	d := mustDomain(t, geom.Pt(0, 0), 1024)
	rng := rand.New(rand.NewSource(13))
	p := randomStar(rng, geom.Pt(512, 512), 100, 300, 19)
	prevBound := math.Inf(1)
	for _, budget := range []int{8, 32, 128, 512} {
		a := CoverBudget(p, d, sfc.Hilbert{}, budget)
		if a.NumCells() > budget {
			t.Errorf("budget %d: produced %d cells", budget, a.NumCells())
		}
		if a.NumCells() == 0 {
			t.Fatalf("budget %d: empty cover", budget)
		}
		// Conservative: every inside point is covered.
		for i := 0; i < 300; i++ {
			pt := geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
			if p.ContainsPoint(pt) && !a.ContainsPoint(pt) {
				t.Fatalf("budget %d: cover misses inside point %v", budget, pt)
			}
		}
		// Precision improves (bound shrinks) with budget.
		bound := a.MaxCellDiagonal()
		if bound > prevBound {
			t.Errorf("budget %d: bound %g worse than smaller budget's %g", budget, bound, prevBound)
		}
		prevBound = bound
	}
}

// TestCoverBudgetSpendsItsBudget holds CoverBudget's stop rule to its
// definition on the paper's partition: the cover never exceeds the budget,
// and refinement stops early only where it must — a cover that still leaves
// a boundary cell coarser than sfc.MaxLevel is one split (up to three more
// cells) short of the budget, no earlier.
func TestCoverBudgetSpendsItsBudget(t *testing.T) {
	d := data.CityDomain()
	for ri, rg := range data.Partition(1, 4, 4, 12) {
		for _, budget := range []int{8, 16, 32, 64, 128, 512} {
			a := CoverBudget(rg, d, sfc.Hilbert{}, budget)
			if a.NumCells() > budget {
				t.Errorf("region %d, budget %d: %d cells", ri, budget, a.NumCells())
			}
			coarse := slices.ContainsFunc(a.Boundary, func(id sfc.CellID) bool { return id.Level() < sfc.MaxLevel })
			if coarse && a.NumCells()+3 <= budget {
				t.Errorf("region %d, budget %d: stopped at %d cells with a coarse boundary cell left, room for another split",
					ri, budget, a.NumCells())
			}
		}
	}
}

func TestApproximationAreaUpperBound(t *testing.T) {
	d := mustDomain(t, geom.Pt(0, 0), 1024)
	rng := rand.New(rand.NewSource(14))
	p := randomStar(rng, geom.Pt(512, 512), 100, 300, 15)
	a, err := Hierarchical(p, d, sfc.Morton{}, 8, Conservative)
	if err != nil {
		t.Fatal(err)
	}
	if a.Area() < p.Area() {
		t.Errorf("conservative raster area %g below polygon area %g", a.Area(), p.Area())
	}
}

// wrappedRegion hides the concrete type to force the generic classification
// path.
type wrappedRegion struct{ geom.Region }

func TestGenericFallbackMatchesSpecialized(t *testing.T) {
	d := mustDomain(t, geom.Pt(-64, -64), 128)
	rng := rand.New(rand.NewSource(15))
	p := randomStar(rng, geom.Pt(0, 0), 15, 40, 11)
	for _, mode := range []Mode{Conservative, Centroid} {
		fast := Uniform(p, d, sfc.Morton{}, 6, mode)
		slow := Uniform(wrappedRegion{p}, d, sfc.Morton{}, 6, mode)
		if !rangesEqual(fast.Ranges(), slow.Ranges()) {
			t.Errorf("mode %v: specialized and generic uniform rasters differ", mode)
		}
		fhr := HierarchicalAtLevel(p, d, sfc.Morton{}, 6, mode)
		shr := HierarchicalAtLevel(wrappedRegion{p}, d, sfc.Morton{}, 6, mode)
		if !rangesEqual(fhr.Ranges(), shr.Ranges()) {
			t.Errorf("mode %v: specialized and generic HR differ", mode)
		}
	}
}

func TestPolygonWithHoleRaster(t *testing.T) {
	d := mustDomain(t, geom.Pt(0, 0), 64)
	p := geom.MustPolygon(
		geom.Ring{geom.Pt(8, 8), geom.Pt(56, 8), geom.Pt(56, 56), geom.Pt(8, 56)},
		geom.Ring{geom.Pt(24, 24), geom.Pt(40, 24), geom.Pt(40, 40), geom.Pt(24, 40)},
	)
	a := Uniform(p, d, sfc.Morton{}, 6, Conservative) // cell side 1
	if a.ContainsPoint(geom.Pt(32, 32)) {
		t.Error("hole center covered by conservative raster")
	}
	if !a.ContainsPoint(geom.Pt(16, 16)) {
		t.Error("solid part not covered")
	}
	// The hole boundary must be represented: a point just inside the hole
	// edge is covered (boundary cell), the deep hole is not.
	if !a.ContainsPoint(geom.Pt(24.2, 32)) {
		t.Error("hole-adjacent point should be in a boundary cell")
	}
}

func TestMultiPolygonRaster(t *testing.T) {
	d := mustDomain(t, geom.Pt(0, 0), 64)
	a1 := geom.MustPolygon(geom.Ring{geom.Pt(4, 4), geom.Pt(12, 4), geom.Pt(12, 12), geom.Pt(4, 12)})
	a2 := geom.MustPolygon(geom.Ring{geom.Pt(40, 40), geom.Pt(56, 40), geom.Pt(56, 56), geom.Pt(40, 56)})
	m := geom.NewMultiPolygon(a1, a2)
	a := Uniform(m, d, sfc.Hilbert{}, 6, Conservative)
	if !a.ContainsPoint(geom.Pt(8, 8)) || !a.ContainsPoint(geom.Pt(48, 48)) {
		t.Error("multipolygon parts not covered")
	}
	if a.ContainsPoint(geom.Pt(25, 25)) {
		t.Error("gap between parts covered")
	}
}

func TestCoversLeafPosConsistentWithCells(t *testing.T) {
	d := mustDomain(t, geom.Pt(0, 0), 1024)
	rng := rand.New(rand.NewSource(16))
	p := randomStar(rng, geom.Pt(512, 512), 100, 300, 9)
	a, err := Hierarchical(p, d, sfc.Hilbert{}, 32, Conservative)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		pt := geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
		pos, _ := d.LeafPos(sfc.Hilbert{}, pt)
		want := false
		for _, id := range slices.Concat(a.Interior, a.Boundary) {
			if lo, hi := id.LeafPosRange(); pos >= lo && pos <= hi {
				want = true
				break
			}
		}
		if got := a.CoversLeafPos(pos); got != want {
			t.Fatalf("CoversLeafPos(%d) = %v, cells say %v", pos, got, want)
		}
	}
}

func TestCircleRasterization(t *testing.T) {
	// The generic classification path handles any Region — here a disk:
	// conservative HR of a circle honors the distance bound with zero
	// circle-specific code.
	d := mustDomain(t, geom.Pt(0, 0), 1024)
	c := geom.Circle{Center: geom.Pt(512, 512), Radius: 200}
	eps := 8.0
	a, err := Hierarchical(c, d, sfc.Hilbert{}, eps, Conservative)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxCellDiagonal() > eps {
		t.Errorf("bound violated: %g", a.MaxCellDiagonal())
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 2000; i++ {
		pt := geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
		in, approx := c.ContainsPoint(pt), a.ContainsPoint(pt)
		if in && !approx {
			t.Fatalf("false negative at %v", pt)
		}
		if approx && !in && c.DistToPoint(pt) > eps {
			t.Fatalf("false positive at %v beyond bound", pt)
		}
	}
	// Area converges to πr² from above.
	want := math.Pi * 200 * 200
	if a.Area() < want || a.Area() > want*1.05 {
		t.Errorf("raster area %g vs disk area %g", a.Area(), want)
	}
}
