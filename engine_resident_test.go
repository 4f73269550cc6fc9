package distbound

import (
	"strings"
	"sync"
	"testing"

	"distbound/internal/data"
)

func residentFixture(t *testing.T, n int) (*Engine, *Dataset, PointSet, []Region) {
	t.Helper()
	pts, weights := data.TaxiPoints(51, n)
	regions := dataRegions(52, 5, 5, 40)
	e := NewEngine(regions)
	ds, err := e.RegisterPoints("taxi", pts, weights)
	if err != nil {
		t.Fatal(err)
	}
	return e, ds, PointSet{Pts: pts, Weights: weights}, regions
}

func TestRegisterPoints(t *testing.T) {
	e, ds, _, _ := residentFixture(t, 5000)
	if ds.Name() != "taxi" || ds.Len() != 5000 || ds.MemoryBytes() <= 0 {
		t.Error("dataset accounting wrong")
	}
	if ds.Dropped() != 0 {
		t.Errorf("%d in-domain points dropped", ds.Dropped())
	}
	if got, ok := e.Dataset("taxi"); !ok || got != ds {
		t.Error("lookup by name failed")
	}
	if _, ok := e.Dataset("nope"); ok {
		t.Error("unknown name resolved")
	}
	if _, err := e.RegisterPoints("taxi", nil, nil); err == nil {
		t.Error("duplicate registration accepted")
	}
	if _, err := e.RegisterPoints("", nil, nil); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := e.RegisterPoints("bad", []Point{Pt(0, 0)}, []float64{1, 2}); err == nil {
		t.Error("mismatched weight column accepted")
	}
}

// TestUnregisterPoints: the name frees up, old handles die, and a
// same-named successor dataset gets a fresh joiner over the shared cover set
// — never the predecessor's state (joiners are keyed by store identity, not
// name).
func TestUnregisterPoints(t *testing.T) {
	e, ds, ps, _ := residentFixture(t, 200_000)
	// Warm a cover artifact for the first dataset.
	first, strat, err := e.AggregateDataset(ds, Count, 16, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if strat != StrategyPointIdx {
		t.Skipf("fixture planned %v; lifecycle check needs pointidx", strat)
	}
	if !e.UnregisterPoints("taxi") {
		t.Fatal("unregister reported no dataset")
	}
	if e.UnregisterPoints("taxi") {
		t.Error("double unregister reported a dataset")
	}
	if _, _, err := e.AggregateDataset(ds, Count, 16, 1); err == nil {
		t.Error("stale handle accepted after unregister")
	}
	// Re-register the same name with HALF the points: results must reflect
	// the new store, not the predecessor's cached covers+store.
	half := len(ps.Pts) / 2
	ds2, err := e.RegisterPoints("taxi", ps.Pts[:half], ps.Weights[:half])
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := e.AggregateDataset(ds2, Count, 16, 100000)
	if err != nil {
		t.Fatal(err)
	}
	var totFirst, totSecond int64
	for ri := range first.Counts {
		totFirst += first.Counts[ri]
		totSecond += second.Counts[ri]
	}
	if totSecond >= totFirst {
		t.Errorf("successor dataset (half the points) counted %d ≥ predecessor %d: stale store served",
			totSecond, totFirst)
	}
}

func TestAggregateDatasetRejectsForeignHandle(t *testing.T) {
	_, ds, _, regions := residentFixture(t, 1000)
	other := NewEngine(regions[:4])
	if _, _, err := other.AggregateDataset(ds, Count, 16, 1); err == nil {
		t.Error("foreign dataset handle accepted")
	}
	if _, _, err := other.AggregateDataset(nil, Count, 16, 1); err == nil {
		t.Error("nil dataset handle accepted")
	}
	res := other.AggregateBatch([]BatchQuery{{Dataset: ds, Agg: Count, Bound: 16}}, 1)
	if res[0].Err == nil {
		t.Error("batch accepted a foreign dataset handle")
	}
	if _, err := other.PlanForDataset(ds, Count, 16, 1); err == nil {
		t.Error("PlanForDataset accepted a foreign dataset handle")
	}
	if _, err := other.ExplainDataset(nil, Count, 16, 1); err == nil {
		t.Error("ExplainDataset accepted a nil handle")
	}
}

// TestResidentPlannerSelectsPointIdx pins the acceptance criterion: for
// repeated COUNT queries over a registered dataset the planner must select
// the learned-index strategy, and Explain must list it.
func TestResidentPlannerSelectsPointIdx(t *testing.T) {
	e, ds, _, _ := residentFixture(t, 200_000)
	plan, err := e.PlanForDataset(ds, Count, 16, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != StrategyPointIdx {
		t.Errorf("repeated resident COUNT planned %v (costs: %v)", plan.Strategy, plan.Costs)
	}
	out, err := e.ExplainDataset(ds, Count, 16, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pointidx") || !strings.Contains(out, "*") {
		t.Errorf("ExplainDataset output unexpected:\n%s", out)
	}
	// Exact requirement still forces the exact plan; ad-hoc planning is
	// untouched by dataset registration.
	if p, err := e.PlanForDataset(ds, Count, 0, 100000); err != nil || p.Strategy != StrategyExact {
		t.Errorf("bound 0 resident query planned %v (err %v)", p.Strategy, err)
	}
	if p := e.Plan(200_000, 16, 100000); p.Strategy == StrategyPointIdx {
		t.Error("ad-hoc plan chose the resident strategy")
	}
}

// TestAggregateDatasetMatchesStreaming verifies result agreement between the
// resident path and the streaming paths over the same points: bit-identical
// counts and extremes against the ACT join at the same bound, and exact
// equality with the streaming engine result when the bound forces the exact
// plan.
func TestAggregateDatasetMatchesStreaming(t *testing.T) {
	// Large enough that per-range probing beats per-point streaming and the
	// planner picks the resident strategy on its own.
	e, ds, ps, regions := residentFixture(t, 200_000)
	const bound = 16.0

	// Reference ACT result over the same domain (the polygon-index facade
	// wraps exactly the streaming ACT joiner the engine runs).
	idx, err := NewPolygonIndexIn(regions, DomainForRegions(regions...), Hilbert, bound)
	if err != nil {
		t.Fatal(err)
	}

	for _, agg := range []Agg{Count, Sum, Avg, Min, Max} {
		want, err := idx.Aggregate(ps, agg)
		if err != nil {
			t.Fatal(err)
		}
		res, strat, err := e.AggregateDataset(ds, agg, bound, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if strat != StrategyPointIdx {
			t.Fatalf("%v: resident query ran %v, want pointidx", agg, strat)
		}
		for ri := range regions {
			if res.Counts[ri] != want.Counts[ri] {
				t.Fatalf("%v region %d: resident count %d != ACT %d",
					agg, ri, res.Counts[ri], want.Counts[ri])
			}
			switch agg {
			case Min, Max:
				if res.Extremes[ri] != want.Extremes[ri] {
					t.Fatalf("%v region %d: extreme drift", agg, ri)
				}
			}
		}
	}

	// Exact plan on the resident handle streams the original points.
	res, strat, err := e.AggregateDataset(ds, Count, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if strat != StrategyExact {
		t.Fatalf("bound 0 ran %v", strat)
	}
	brute, _ := BruteForceJoin(ps, regions, Count)
	for ri := range regions {
		if res.Counts[ri] != brute.Counts[ri] {
			t.Fatalf("region %d: exact resident count differs from brute force", ri)
		}
	}
}

// TestAggregateBatchWithDatasets mixes handle-bearing and ad-hoc queries in
// one batch and checks positional results, strategies and cover-cache
// participation.
func TestAggregateBatchWithDatasets(t *testing.T) {
	e, ds, ps, regions := residentFixture(t, 200_000)
	queries := []BatchQuery{
		{Dataset: ds, Agg: Count, Bound: 16, Repetitions: 100000},
		{Points: ps, Agg: Count, Bound: 16, Repetitions: 1},
		{Dataset: ds, Agg: Sum, Bound: 16, Repetitions: 100000},
		{Dataset: ds, Agg: Count, Bound: 0, Repetitions: 1},
	}
	results := e.AggregateBatch(queries, 0)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
	}
	if results[0].Strategy != StrategyPointIdx || results[2].Strategy != StrategyPointIdx {
		t.Errorf("resident repeated queries ran %v/%v", results[0].Strategy, results[2].Strategy)
	}
	if results[3].Strategy != StrategyExact {
		t.Errorf("bound-0 dataset query ran %v", results[3].Strategy)
	}
	// The handle-bearing and ad-hoc COUNT queries at the same bound agree
	// bit-identically whenever both run conservative-cover strategies over
	// the same points.
	single, strat, err := e.AggregateDataset(ds, Count, 16, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if strat != StrategyPointIdx {
		t.Fatalf("single resident query ran %v", strat)
	}
	for ri := range regions {
		if results[0].Result.Counts[ri] != single.Counts[ri] {
			t.Fatalf("region %d: batch resident count %d != single %d",
				ri, results[0].Result.Counts[ri], single.Counts[ri])
		}
	}
	_, _, cover := e.CacheStats()
	if cover.Builds == 0 {
		t.Error("resident queries never built a cover artifact")
	}
	if cover.Builds > 1 {
		t.Errorf("cover artifact built %d times for one (dataset, bound)", cover.Builds)
	}
}

// TestResidentConcurrency drives the new engine paths from many goroutines
// with cold caches — concurrent cover builds must deduplicate, and every
// caller must see results identical to a warm sequential run. Run with
// -race.
func TestResidentConcurrency(t *testing.T) {
	e, ds, ps, _ := residentFixture(t, 200_000)
	bounds := []float64{8, 16, 64}

	// Reference results on a warm engine.
	want := map[float64]Result{}
	for _, b := range bounds {
		res, strat, err := e.AggregateDataset(ds, Count, b, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if strat != StrategyPointIdx {
			t.Skipf("fixture planned %v at bound %g; concurrency check needs pointidx", strat, b)
		}
		want[b] = res
	}

	// Fresh engine so every goroutine races on cold cover builds; also
	// register more datasets concurrently to exercise the registry lock.
	e2 := NewEngine(dataRegions(52, 5, 5, 40))
	ds2, err := e2.RegisterPoints("taxi", ps.Pts, ps.Weights)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%5 == 4 {
				// Interleave registrations with queries.
				if _, err := e2.RegisterPoints(string(rune('a'+g)), ps.Pts[:100], nil); err != nil {
					errs[g] = err
					return
				}
			}
			for i := 0; i < 6; i++ {
				b := bounds[(g+i)%len(bounds)]
				res, _, err := e2.AggregateDataset(ds2, Count, b, 100000)
				if err != nil {
					errs[g] = err
					return
				}
				for ri := range res.Counts {
					if res.Counts[ri] != want[b].Counts[ri] {
						errs[g] = errDrift
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	_, _, cover := e2.CacheStats()
	if int(cover.Builds) > len(bounds) {
		t.Errorf("%d cover builds for %d distinct bounds: singleflight failed", cover.Builds, len(bounds))
	}
}

var errDrift = errDriftType{}

type errDriftType struct{}

func (errDriftType) Error() string {
	return "concurrent resident count drifted from warm sequential run"
}
