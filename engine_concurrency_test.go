package distbound

import (
	"context"
	"sync"
	"testing"
)

// mixedQuery is one (bound, repetitions) point of the concurrent workload.
type mixedQuery struct {
	bound float64
	reps  int
}

// engineReference warms the engine's caches at every query and returns the
// stable per-bound reference results plus the strategies that ran. Two
// warm-up rounds are needed: the first builds the indexes, the second plans
// with every build cost already amortized — the same state every later call
// observes.
func engineReference(t *testing.T, e *Engine, ps PointSet, agg Agg, queries []mixedQuery) (map[float64]Result, map[Strategy]bool) {
	t.Helper()
	ref := map[float64]Result{}
	strategies := map[Strategy]bool{}
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			resp, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{agg}, Bound: q.bound, Repetitions: q.reps})
			if err != nil {
				t.Fatalf("bound %g: %v", q.bound, err)
			}
			ref[q.bound] = resp.Results[0]
			strategies[resp.Strategy] = true
		}
	}
	return ref, strategies
}

// TestEngineConcurrentMixedBounds drives one shared engine from many
// goroutines with mixed bounds and repetition hints chosen so all three
// strategies — and hence the exact joiner plus both the ACT and BRJ cache
// paths — run concurrently, checking every result against the sequential
// reference. Run under -race this is the concurrency-safety gate for the
// serving layer.
func TestEngineConcurrentMixedBounds(t *testing.T) {
	ps, _ := facadeWorkload(20000)
	regions := complexRegions()
	e := NewEngine(regions)
	// bound 0 → exact; fine bounds at high reps → ACT; a coarse one-shot
	// bound → BRJ (asserted below so cost-model drift cannot silently turn
	// this into an exact-only test).
	queries := []mixedQuery{{0, 1}, {16, 1000}, {32, 1000}, {64, 1}}
	ref, strategies := engineReference(t, e, ps, Count, queries)
	for _, s := range []Strategy{StrategyExact, StrategyACT, StrategyBRJ} {
		if !strategies[s] {
			t.Fatalf("workload never planned %v — concurrency gate lost coverage; saw %v", s, strategies)
		}
	}

	const goroutines = 12
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 6; i++ {
				q := queries[(g+i)%len(queries)]
				resp, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}, Bound: q.bound, Repetitions: q.reps})
				if err != nil {
					t.Errorf("goroutine %d bound %g: %v", g, q.bound, err)
					return
				}
				res, want := resp.Results[0], ref[q.bound]
				for ri := range regions {
					if res.Counts[ri] != want.Counts[ri] {
						t.Errorf("goroutine %d bound %g region %d: %d != %d",
							g, q.bound, ri, res.Counts[ri], want.Counts[ri])
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}

// TestEngineConcurrentBuildsAreDeduplicated hammers a cold engine with many
// goroutines asking for the same two bounds; the singleflight cover cache
// must run exactly one build per distinct bound.
func TestEngineConcurrentBuildsAreDeduplicated(t *testing.T) {
	ps, _ := facadeWorkload(2000)
	regions := complexRegions()
	e := NewEngine(regions)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			// High repetitions force the ACT plan for both bounds.
			b := []float64{8, 16}[g%2]
			if _, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}, Bound: b, Repetitions: 1_000_000}); err != nil {
				t.Errorf("bound %g: %v", b, err)
			}
		}(g)
	}
	close(start)
	wg.Wait()

	st := e.covers.Stats()
	if st.Builds != 2 {
		t.Errorf("10 goroutines over 2 bounds ran %d builds (want 2); stats %+v", st.Builds, st)
	}
	if !coverReady(e, 8) || !coverReady(e, 16) || st.Evictions != 0 {
		t.Errorf("cache does not hold both bounds' cover sets; stats %+v", st)
	}
}

// TestEngineCachedBuildInformsPlanner verifies the cost-model extension: a
// one-shot query at a bound whose index is already resident may switch to
// the indexed plan, because its build cost is sunk.
func TestEngineCachedBuildInformsPlanner(t *testing.T) {
	regions := complexRegions()
	ps, _ := facadeWorkload(20000)
	e := NewEngine(regions)

	cold := e.planOnly(adHoc(len(ps.Pts), Count, 16), 1)
	if cold.Strategy == StrategyACT {
		t.Fatalf("cold one-shot query already plans ACT: %v", cold.Costs)
	}
	coldACT := cold.Costs[StrategyACT]
	if coldACT.Build <= 0 {
		t.Fatalf("cold ACT estimate has no build cost: %+v", coldACT)
	}

	// Warm the ACT index via a heavily repeated query, then re-plan the
	// identical one-shot query: the ACT build cost must read as paid.
	if _, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}, Bound: 16, Repetitions: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	warm := e.planOnly(adHoc(len(ps.Pts), Count, 16), 1)
	if got := warm.Costs[StrategyACT].Build; got != 0 {
		t.Errorf("resident ACT index still charged build cost %g", got)
	}
	if warm.Strategy != StrategyACT {
		t.Errorf("warm one-shot query plans %v over the resident index: %v",
			warm.Strategy, warm.Costs)
	}
}
