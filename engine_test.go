package distbound

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/join"
	"distbound/internal/testutil"
)

func dataRegions(seed int64, cols, rows, ptsPerEdge int) []Region {
	return data.Regions(data.Partition(seed, cols, rows, ptsPerEdge))
}

func TestEngineExactWhenNoBound(t *testing.T) {
	ps, regions := facadeWorkload(10000)
	e := NewEngine(regions)
	resp, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}})
	if err != nil {
		t.Fatal(err)
	}
	res, strategy := resp.Results[0], resp.Strategy
	if strategy != StrategyExact {
		t.Errorf("no bound: ran %v", strategy)
	}
	brute, _ := BruteForceJoin(ps, regions, Count)
	for i := range regions {
		if res.Counts[i] != brute.Counts[i] {
			t.Fatalf("region %d: exact engine differs from brute force", i)
		}
	}
}

// TestEngineExactCircleMatchesBruteForce: a disk's predicates must agree, or
// the exact join (which filters by MBR) and brute force (which asks the disk)
// count different points. Two of the three points lie 1e-11 beyond the
// radius, outside the MBR; only (50, 50) is in the disk.
func TestEngineExactCircleMatchesBruteForce(t *testing.T) {
	regions := []Region{geom.Circle{Center: Pt(0, 0), Radius: 100}}
	ps := PointSet{Pts: []Point{Pt(100+1e-11, 0), Pt(0, -100-1e-11), Pt(50, 50)}}
	resp, err := NewEngine(regions).Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}})
	if err != nil {
		t.Fatal(err)
	}
	brute, err := BruteForceJoin(ps, regions, Count)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resp.Results[0].Counts[0], brute.Counts[0]; got != 1 || want != 1 {
		t.Fatalf("exact join counts %d, brute force %d; the disk holds 1", got, want)
	}
}

func TestEngineApproximateStrategiesAccurate(t *testing.T) {
	ps, regions := facadeWorkload(20000)
	exact, _ := BruteForceJoin(ps, regions, Count)
	e := NewEngine(regions)

	// A coarse and a fine bound pick different plans (brj and act); both
	// must stay within the error guarantee.
	for _, bound := range []float64{64, 16} {
		resp, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}, Bound: bound})
		if err != nil {
			t.Fatal(err)
		}
		res, strategy := resp.Results[0], resp.Strategy
		if med := join.MedianRelativeError(res, exact); med > 0.02 {
			t.Errorf("bound=%g (%v): median error %g", bound, strategy, med)
		}
		// Whatever plan ran, the distance-bound guarantee must hold.
		testutil.Classify(ps.Pts, ps.Weights, regions, bound).
			Check(t, strategy.String(), Count, res)
	}
}

// complexRegions returns a partition with high per-polygon vertex counts, so
// that exact PIP refinement is expensive enough for index builds to pay off.
func complexRegions() []Region {
	return dataRegions(41, 5, 5, 40) // 164 vertices per region
}

// TestAdhocRuleMatchesForcedArm walks BenchmarkAdhocArms' grid — its three
// region sets, its bounds, one worker and GOMAXPROCS — on a smaller point
// set: at every cell an unforced request runs the arm the rule names, and
// answers bit for bit what the same request forced onto that arm answers.
// An additive set and a MIN/MAX set are both planned, so brj's exclusion is
// walked too.
func TestAdhocRuleMatchesForcedArm(t *testing.T) {
	pts, ws := data.TaxiPoints(7, 20_000)
	ps := PointSet{Pts: pts, Weights: ws}
	ctx := context.Background()
	arm := func(bound float64, aggs []Agg) Strategy {
		switch {
		case !(bound >= 4):
			return StrategyExact
		case bound < 32 || join.ExtremeIn(aggs):
			return StrategyACT
		}
		return StrategyBRJ
	}
	for _, set := range []struct {
		name    string
		regions []Region
	}{
		{"partition16x16", dataRegions(1, 16, 16, 12)},
		{"boroughs", data.Regions(data.Boroughs(1))},
		{"neighborhoods", data.Regions(data.Neighborhoods(1))},
	} {
		e := NewEngine(set.regions)
		for _, bound := range []float64{0, 2, 4, 8, 16, 32, 64, 128} {
			for _, aggs := range [][]Agg{{Count, Sum}, {Count, Min, Max}} {
				for _, workers := range []int{runtime.GOMAXPROCS(0), 1} {
					label := fmt.Sprintf("%s ε%g %v workers=%d", set.name, bound, aggs, workers)
					req := Request{Points: ps, Aggs: aggs, Bound: bound, Workers: workers}
					planned, err := e.Do(ctx, req)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want := arm(bound, aggs)
					if planned.Strategy != want {
						t.Fatalf("%s: ran %v, want %v", label, planned.Strategy, want)
					}
					req.Strategy = &want
					forced, err := e.Do(ctx, req)
					if err != nil {
						t.Fatalf("%s forced: %v", label, err)
					}
					for k, agg := range aggs {
						testutil.CheckIdentical(t, label+" "+agg.String(), forced.Results[k], planned.Results[k])
					}
				}
			}
		}
	}
}

// TestAdhocBelowLeafCellIsExact: an unforced request at a positive bound
// finer than a cover's leaf cell — where a forced act read is refused
// (TestBoundFinerThanLeafCellRefused) — is answered exactly, as brute force
// answers it, without starting a cover or mask build.
func TestAdhocBelowLeafCellIsExact(t *testing.T) {
	ps, regions := facadeWorkload(5000)
	e := NewEngine(regions)
	bound := e.domain.CellDiagonal(MaxLevel) / 2
	resp, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}, Bound: bound})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != StrategyExact {
		t.Errorf("ε%g ran %v, want exact", bound, resp.Strategy)
	}
	brute, err := BruteForceJoin(ps, regions, Count)
	if err != nil {
		t.Fatal(err)
	}
	testutil.CheckIdentical(t, "below the leaf cell vs brute force", brute, resp.Results[0])
	if c, b := e.covers.Stats().Builds, e.maskBuild.Stats().Builds; c != 0 || b != 0 {
		t.Errorf("ε%g started %d cover and %d mask builds, want none", bound, c, b)
	}
}

func TestEngineMinMaxAvoidsBRJ(t *testing.T) {
	ps, regions := facadeWorkload(5000)
	e := NewEngine(regions)
	// Force a setup where BRJ would normally be planned (coarse bound,
	// one-shot) and verify MIN falls back to a supporting strategy.
	resp, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Min}, Bound: 64})
	if err != nil {
		t.Fatalf("MIN via engine failed (%v): %v", resp.Strategy, err)
	}
	if resp.Strategy == StrategyBRJ {
		t.Error("MIN ran on BRJ")
	}
	if len(resp.Results[0].Counts) != len(regions) {
		t.Error("result size wrong")
	}
}

func TestEnginePlanReflectsMinMaxFallback(t *testing.T) {
	ps, _ := facadeWorkload(20000)
	regions := complexRegions()
	e := NewEngine(regions)
	// The COUNT plan for this query must pick BRJ — otherwise the fallback
	// scenario is not exercised and this test is vacuous.
	if s := strategyFor(adHoc(len(ps.Pts), Count, 64)); s != StrategyBRJ {
		t.Fatalf("COUNT rule chose %v, not BRJ — workload no longer exercises the fallback", s)
	}
	want := strategyFor(adHoc(len(ps.Pts), Min, 64))
	if want == StrategyBRJ {
		t.Error("MIN rule picks BRJ, which cannot run MIN")
	}
	// The executed strategy must match the rule's pick exactly.
	resp, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Min}, Bound: 64})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != want {
		t.Errorf("Do ran %v but the rule picks %v", resp.Strategy, want)
	}
}

func TestEngineCachesACTIndex(t *testing.T) {
	ps, _ := facadeWorkload(5000)
	regions := complexRegions()
	e := NewEngine(regions)
	// Two aggregations at the same act bound: the second must reuse the
	// bound's cached cover set.
	if _, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}, Bound: 16}); err != nil {
		t.Fatal(err)
	}
	ce, ok := coverAt(e, 16)
	if !ok {
		t.Fatal("bound 16 not resident")
	}
	if _, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}, Bound: 16}); err != nil {
		t.Fatal(err)
	}
	if got, _ := coverAt(e, 16); got != ce {
		t.Error("cover set rebuilt instead of reused")
	}
	if st := e.covers.Stats(); st.Builds != 1 {
		t.Errorf("expected 1 build, counted %d", st.Builds)
	}
}
