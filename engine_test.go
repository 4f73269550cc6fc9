package distbound

import (
	"context"
	"strings"
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

	// One-shot at a moderate bound and a repeated fine-bound workload should
	// pick different plans; both must stay within the error guarantee.
	for _, q := range []struct {
		bound float64
		reps  int
	}{
		{64, 1}, {16, 100000},
	} {
		resp, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}, Bound: q.bound, Repetitions: q.reps})
		if err != nil {
			t.Fatal(err)
		}
		res, strategy := resp.Results[0], resp.Strategy
		if med := join.MedianRelativeError(res, exact); med > 0.02 {
			t.Errorf("bound=%g reps=%d (%v): median error %g", q.bound, q.reps, strategy, med)
		}
		// Whatever plan ran, the distance-bound guarantee must hold.
		testutil.Classify(ps.Pts, ps.Weights, regions, q.bound).
			Check(t, strategy.String(), Count, res)
	}
}

// complexRegions returns a partition with high per-polygon vertex counts, so
// that exact PIP refinement is expensive enough for index builds to pay off.
func complexRegions() []Region {
	return dataRegions(41, 5, 5, 40) // 164 vertices per region
}

func TestEnginePlanSwitchesWithRepetitions(t *testing.T) {
	regions := complexRegions()
	e := NewEngine(regions)
	req := adHoc(2_000_000, Count, 2)
	oneShot := e.planOnly(req, 1)
	repeated := e.planOnly(req, 100000)
	if oneShot.Strategy == StrategyACT {
		t.Errorf("one-shot fine-bound query planned ACT: %v", oneShot.Costs)
	}
	if repeated.Strategy != StrategyACT {
		t.Errorf("heavily repeated query planned %v: %v", repeated.Strategy, repeated.Costs)
	}
	out := repeated.Explain()
	if !strings.Contains(out, "act") || !strings.Contains(out, "*") {
		t.Errorf("Explain output unexpected:\n%s", out)
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
	countPlan := e.planOnly(adHoc(len(ps.Pts), Count, 64), 1)
	if countPlan.Strategy != StrategyBRJ {
		t.Fatalf("COUNT plan chose %v, not BRJ — workload no longer exercises the fallback; costs: %v",
			countPlan.Strategy, countPlan.Costs)
	}
	plan := e.planOnly(adHoc(len(ps.Pts), Min, 64), 1)
	if plan.Strategy == StrategyBRJ {
		t.Error("MIN plan reports BRJ, which cannot run MIN")
	}
	if _, ok := plan.Costs[StrategyBRJ]; ok {
		t.Error("MIN plan still lists BRJ as an alternative")
	}
	// The executed strategy must match the reported plan exactly.
	resp, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Min}, Bound: 64, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != plan.Strategy {
		t.Errorf("Do ran %v but the plan reported %v", resp.Strategy, plan.Strategy)
	}
	if strings.Contains(resp.Explain, "brj") {
		t.Errorf("Explain for MIN still mentions brj:\n%s", resp.Explain)
	}
}

func TestEngineCachesACTIndex(t *testing.T) {
	ps, _ := facadeWorkload(5000)
	regions := complexRegions()
	e := NewEngine(regions)
	// Two aggregations at the same bound with huge repetitions: the second
	// must reuse the bound's cached cover set.
	if _, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}, Bound: 16, Repetitions: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	ce, ok := e.covers.PeekReady(16)
	if !ok {
		t.Fatal("bound 16 not resident")
	}
	if _, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}, Bound: 16, Repetitions: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	if got, _ := e.covers.PeekReady(16); got != ce {
		t.Error("cover set rebuilt instead of reused")
	}
	if st := e.covers.Stats(); st.Builds != 1 {
		t.Errorf("expected 1 build, counted %d", st.Builds)
	}
}
