package distbound

import (
	"math"
	"math/rand"
	"testing"

	"distbound/internal/data"
	"distbound/internal/testutil"
)

func facadeWorkload(n int) (PointSet, []Region) {
	pts, weights := data.TaxiPoints(21, n)
	regions := data.Regions(data.Partition(22, 5, 5, 4))
	return PointSet{Pts: pts, Weights: weights}, regions
}

func TestPolygonIndexLookupGuarantee(t *testing.T) {
	_, regions := facadeWorkload(0)
	const bound = 32.0
	idx, err := NewPolygonIndex(regions, bound)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Bound() != bound || idx.NumCells() == 0 || idx.MemoryBytes() <= 0 {
		t.Error("index accounting wrong")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		p := Pt(rng.Float64()*data.CitySize, rng.Float64()*data.CitySize)
		ri := idx.Lookup(p)
		if ri < 0 {
			t.Fatalf("partition point %v unassigned", p)
		}
		if !regions[ri].ContainsPoint(p) && regions[ri].BoundaryDist(p) > bound {
			t.Fatalf("lookup error beyond bound at %v", p)
		}
	}
}

func TestPointIndexCountConservative(t *testing.T) {
	ps, regions := facadeWorkload(30000)
	d := DomainForRegions(regions...)
	idx, err := NewPointIndex(ps.Pts, d, Hilbert)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != len(ps.Pts) || idx.MemoryBytes() <= 0 {
		t.Error("point index accounting wrong")
	}
	exact, err := BruteForceJoin(ps, regions[:4], Count)
	if err != nil {
		t.Fatal(err)
	}
	for ri, rg := range regions[:4] {
		loose, looseBound := idx.CountIn(rg, 32)
		tight, tightBound := idx.CountIn(rg, 512)
		if int64(loose) < exact.Counts[ri] || int64(tight) < exact.Counts[ri] {
			t.Errorf("region %d: conservative counts undercount (%d/%d vs %d)",
				ri, loose, tight, exact.Counts[ri])
		}
		if tight > loose {
			t.Errorf("region %d: more cells increased the count (%d > %d)", ri, tight, loose)
		}
		if tightBound > looseBound {
			t.Errorf("region %d: more cells worsened the bound", ri)
		}
		// Prebuilt approximation path agrees with CountIn.
		a := CoverBudget(rg, d, Hilbert, 512)
		if got := idx.CountApprox(a); got != tight {
			t.Errorf("region %d: CountApprox %d != CountIn %d", ri, got, tight)
		}
	}
}

// TestPointIndexCountApproxExact pins CountApprox to its definition: the
// number of indexed keys inside the approximation's ranges, counted by brute
// force over every point's leaf key, at several cover budgets.
func TestPointIndexCountApproxExact(t *testing.T) {
	ps, regions := facadeWorkload(30000)
	d := DomainForRegions(regions...)
	idx, err := NewPointIndex(ps.Pts, d, Hilbert)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, len(ps.Pts))
	for i, p := range ps.Pts {
		keys[i], _ = d.LeafPos(Hilbert, p)
	}
	for _, budget := range []int{8, 64, 512} {
		for ri, rg := range regions[:4] {
			a := CoverBudget(rg, d, Hilbert, budget)
			want := 0
			for _, k := range keys {
				for _, r := range a.Ranges() {
					if r.Lo <= k && k <= r.Hi {
						want++
						break
					}
				}
			}
			if got := idx.CountApprox(a); got != want {
				t.Errorf("budget %d, region %d: CountApprox %d, brute count %d", budget, ri, got, want)
			}
		}
	}
	empty, err := NewPointIndex(nil, d, Hilbert)
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.CountApprox(CoverBudget(regions[0], d, Hilbert, 64)); empty.Len() != 0 || got != 0 {
		t.Errorf("empty index: len %d, CountApprox %d", empty.Len(), got)
	}
}

// TestPointIndexRejectsOutOfDomain is the regression test for NewPointIndex
// silently keying out-of-domain points onto clamped border cells: such
// points would be counted in regions touching the border no matter how far
// away they really are.
func TestPointIndexRejectsOutOfDomain(t *testing.T) {
	d, err := NewDomain(Pt(0, 0), 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPointIndex([]Point{Pt(50, 50), Pt(5000, 50)}, d, Hilbert); err == nil {
		t.Fatal("index accepted a point 49× outside the domain")
	}
	idx, err := NewPointIndex([]Point{Pt(50, 50), Pt(99, 99)}, d, Hilbert)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 2 {
		t.Errorf("in-domain points indexed: %d, want 2", idx.Len())
	}
}

func TestJoinsAgree(t *testing.T) {
	ps, regions := facadeWorkload(20000)
	exact, err := ExactJoin(ps, regions, Count)
	if err != nil {
		t.Fatal(err)
	}
	brute, err := BruteForceJoin(ps, regions, Count)
	if err != nil {
		t.Fatal(err)
	}
	for i := range regions {
		if exact.Counts[i] != brute.Counts[i] {
			t.Fatalf("region %d: exact join %d vs brute force %d", i, exact.Counts[i], brute.Counts[i])
		}
	}
	approx, err := ACTJoin(ps, regions, 16, Count)
	if err != nil {
		t.Fatal(err)
	}
	if e := MedianRelativeError(approx, exact); e > 0.01 {
		t.Errorf("ACT join median error %g", e)
	}
	// The differential oracle asserts the hard guarantee behind the error
	// number: every mis-assigned point lies within the bound of a boundary.
	testutil.Classify(ps.Pts, ps.Weights, regions, 16).Check(t, "ACTJoin", Count, approx)
	rj, stats, err := RasterJoin(ps, regions, 64, Count)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumTiles < 1 {
		t.Error("raster join ran no tiles")
	}
	if e := MedianRelativeError(rj, exact); e > 0.02 {
		t.Errorf("raster join median error %g", e)
	}
	testutil.Classify(ps.Pts, ps.Weights, regions, 64).Check(t, "RasterJoin", Count, rj)
}

func TestAggregateWithRangeViaFacade(t *testing.T) {
	ps, regions := facadeWorkload(10000)
	idx, err := NewPolygonIndex(regions, 64)
	if err != nil {
		t.Fatal(err)
	}
	res, ivs, err := idx.AggregateWithRange(ps, Count)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := BruteForceJoin(ps, regions, Count)
	for i := range regions {
		if !ivs[i].Contains(float64(exact.Counts[i])) {
			t.Errorf("region %d: exact %d outside [%g, %g]", i, exact.Counts[i], ivs[i].Lo, ivs[i].Hi)
		}
		if float64(res.Counts[i]) != ivs[i].Hi {
			t.Errorf("region %d: interval top is not the approximate count", i)
		}
	}
}

func TestCanvasAlgebraViaFacade(t *testing.T) {
	g := GridForBound(Pt(0, 0), math.Sqrt2) // pixel size 1
	a, err := NewCanvas(g, 0, 0, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanvasForRect(g, Rect{Min: Pt(0, 0), Max: Pt(3.5, 3.5)})
	if err != nil {
		t.Fatal(err)
	}
	a.Set(1, 1, 2)
	b.Set(1, 1, 3)
	if err := Blend(a, b, BlendAdd); err != nil {
		t.Fatal(err)
	}
	if a.At(1, 1) != 5 {
		t.Errorf("blend = %v", a.At(1, 1))
	}
	if err := MaskCanvas(a, b, func(v float64) bool { return v > 0 }); err != nil {
		t.Fatal(err)
	}
	if a.At(1, 1) != 5 || a.Sum() != 5 {
		t.Error("mask dropped the kept pixel")
	}
	if BlendMax(1, 2) != 2 || BlendMin(1, 2) != 1 || BlendMul(2, 3) != 6 || BlendOver(1, 0) != 1 {
		t.Error("blend funcs wrong")
	}
}

func TestRasterConstructorsAndWKT(t *testing.T) {
	p, err := NewPolygon(Ring{Pt(0, 0), Pt(100, 0), Pt(100, 100), Pt(0, 100)})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMultiPolygon(p)
	d, err := NewDomain(Pt(-10, -10), 200)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := HierarchicalRaster(m, d, Hilbert, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hr.MaxCellDiagonal() > 2 {
		t.Error("HR bound violated")
	}
	ur := UniformRaster(p, d, Morton, 6)
	if ur.NumCells() == 0 {
		t.Error("UR empty")
	}
	cb := CoverBudget(p, d, Hilbert, 64)
	if cb.NumCells() > 64 {
		t.Error("budget exceeded")
	}

	s := PolygonWKT(p)
	v, err := ParseWKT(s)
	if err != nil {
		t.Fatal(err)
	}
	if v.(*Polygon).Area() != p.Area() {
		t.Error("WKT round trip broken")
	}
	if MaxLevel != 30 {
		t.Error("unexpected MaxLevel")
	}
}

func TestFacadeSerializationAndSetOps(t *testing.T) {
	_, regions := facadeWorkload(0)
	d := DomainForRegions(regions...)
	a, err := HierarchicalRaster(regions[0], d, Hilbert, 16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HierarchicalRaster(regions[1], d, Hilbert, 16)
	if err != nil {
		t.Fatal(err)
	}
	data := EncodeApproximation(a)
	back, err := DecodeApproximation(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumCells() != a.NumCells() {
		t.Error("round trip changed cell count")
	}
	// Adjacent partition cells share boundary cells → intersect; overlap
	// area is only the shared boundary strip (small vs either region).
	if !ApproximationsIntersect(a, b) {
		t.Error("adjacent regions' conservative approximations should intersect")
	}
	if ov := OverlapArea(a, b); ov <= 0 || ov > 0.05*regions[0].Area() {
		t.Errorf("overlap area %g implausible", ov)
	}
}
