package distbound

import (
	"context"
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

// TestAggregateWithRangeViaFacade: the §6 result range, built on the
// facade's domain and curve, encloses the exact count and tops out at the
// approximate one.
func TestAggregateWithRangeViaFacade(t *testing.T) {
	ps, regions := facadeWorkload(10000)
	idx, err := join.NewACTJoiner(regions, DomainForRegions(regions...), Hilbert, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, ivs, err := idx.AggregateWithRange(ps, Count)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := BruteForceJoin(ps, regions, Count)
	if err != nil {
		t.Fatal(err)
	}
	for i := range regions {
		if !ivs[i].Contains(float64(exact.Counts[i])) {
			t.Errorf("region %d: exact %d outside [%g, %g]", i, exact.Counts[i], ivs[i].Lo, ivs[i].Hi)
		}
		if float64(res.Counts[i]) != ivs[i].Hi {
			t.Errorf("region %d: interval top is not the approximate count", i)
		}
	}
}
