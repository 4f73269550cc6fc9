package distbound

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"distbound/internal/data"
	"distbound/internal/join"
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
	if idx.NumCells() == 0 || idx.MemoryBytes() <= 0 {
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

// TestJoinsAgree: forced onto each strategy, Engine.Do's exact join matches
// brute force and the approximate ones hold the distance-bound guarantee.
func TestJoinsAgree(t *testing.T) {
	ps, regions := facadeWorkload(20000)
	brute, err := BruteForceJoin(ps, regions, Count)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(regions)
	for _, c := range []struct {
		strat  Strategy
		bound  float64
		maxErr float64
	}{{StrategyExact, 0, 0}, {StrategyACT, 16, 0.01}, {StrategyBRJ, 64, 0.02}} {
		resp, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}, Bound: c.bound, Strategy: &c.strat})
		if err != nil {
			t.Fatal(err)
		}
		res := resp.Results[0]
		if m := join.MedianRelativeError(res, brute); m > c.maxErr {
			t.Errorf("%v: median error %g", c.strat, m)
		}
		// The differential oracle asserts the hard guarantee behind the error
		// number: every mis-assigned point lies within the bound of a boundary.
		testutil.Classify(ps.Pts, ps.Weights, regions, c.bound).Check(t, c.strat.String(), Count, res)
	}
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
	a, err := CanvasForRect(g, Rect{Min: Pt(0, 0), Max: Pt(3.5, 3.5)})
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
	d := DomainForRegions(p)
	hr, err := HierarchicalRaster(p, d, Hilbert, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hr.MaxCellDiagonal() > 2 {
		t.Error("HR bound violated")
	}
	cb := CoverBudget(p, d, Hilbert, 64)
	if cb.NumCells() > 64 {
		t.Error("budget exceeded")
	}
	if MaxLevel != 30 {
		t.Error("unexpected MaxLevel")
	}
}
