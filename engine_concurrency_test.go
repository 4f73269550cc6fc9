package distbound

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// engineReference answers every bound once, building the engine's caches,
// and returns the per-bound reference results plus the strategies that ran.
func engineReference(t *testing.T, e *Engine, ps PointSet, agg Agg, bounds []float64) (map[float64]Result, map[Strategy]bool) {
	t.Helper()
	ref := map[float64]Result{}
	strategies := map[Strategy]bool{}
	for _, b := range bounds {
		resp, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{agg}, Bound: b})
		if err != nil {
			t.Fatalf("bound %g: %v", b, err)
		}
		ref[b] = resp.Results[0]
		strategies[resp.Strategy] = true
	}
	return ref, strategies
}

// TestEngineConcurrentMixedBounds drives one shared engine from many
// goroutines with mixed bounds chosen so all three strategies — and hence the exact joiner plus both the ACT and BRJ cache
// paths — run concurrently, checking every result against the sequential
// reference. Run under -race this is the concurrency-safety gate for the
// serving layer.
func TestEngineConcurrentMixedBounds(t *testing.T) {
	ps, _ := facadeWorkload(20000)
	regions := complexRegions()
	e := NewEngine(regions)
	// bound 0 → exact, 16 → act, 32 and 64 → brj (asserted below so a rule
	// change cannot silently turn this into an exact-only test).
	bounds := []float64{0, 16, 32, 64}
	ref, strategies := engineReference(t, e, ps, Count, bounds)
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
				b := bounds[(g+i)%len(bounds)]
				resp, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}, Bound: b})
				if err != nil {
					t.Errorf("goroutine %d bound %g: %v", g, b, err)
					return
				}
				res, want := resp.Results[0], ref[b]
				for ri := range regions {
					if res.Counts[ri] != want.Counts[ri] {
						t.Errorf("goroutine %d bound %g region %d: %d != %d",
							g, b, ri, res.Counts[ri], want.Counts[ri])
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
// goroutines asking for the same two bounds; the cover Flight must run
// exactly one build per distinct bound.
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
			// The rule plans act at both bounds.
			b := []float64{8, 16}[g%2]
			if _, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}, Bound: b}); err != nil {
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
	if !coverReady(e, 8) || !coverReady(e, 16) {
		t.Errorf("the slots do not hold both bounds' cover sets; stats %+v", st)
	}
}

// TestEngineColdRequestBuildsRuleArm pins the cold policy: the first
// one-shot ad-hoc request at a bound builds the artifact of the arm the rule
// names — nothing reads what is cached — and a repeat plans the same arm and
// reuses the artifact.
func TestEngineColdRequestBuildsRuleArm(t *testing.T) {
	ps, _ := facadeWorkload(20000)
	e := NewEngine(complexRegions())
	ctx := context.Background()
	for _, c := range []struct {
		bound  float64
		want   Strategy
		builds func() int64
	}{
		{16, StrategyACT, func() int64 { return e.covers.Stats().Builds }},
		{64, StrategyBRJ, func() int64 { return e.maskBuild.Stats().Builds }},
	} {
		for round := 1; round <= 2; round++ {
			resp, err := e.Do(ctx, Request{Points: ps, Aggs: []Agg{Count}, Bound: c.bound})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Strategy != c.want {
				t.Errorf("ε%g round %d ran %v, want %v", c.bound, round, resp.Strategy, c.want)
			}
			if round == 1 && resp.Build <= 0 {
				t.Errorf("ε%g: the cold request reports no build", c.bound)
			}
			resp.Release()
			if got := c.builds(); got != 1 {
				t.Errorf("ε%g round %d: %d builds of the %v artifact, want 1", c.bound, round, got, c.want)
			}
		}
	}
}

// TestMaskBuildsTakeATokenAndStoreOnlyOnSuccess: a BRJ mask build waits for
// one of maskCacheCapacity tokens, so at most that many run at once, and its
// set enters the LRU only once it succeeds: a failed or canceled build evicts
// no resident set, and a successful one evicts the least recently used.
func TestMaskBuildsTakeATokenAndStoreOnlyOnSuccess(t *testing.T) {
	e := NewEngine(complexRegions())
	bg := context.Background()
	for _, b := range []float64{32, 64} {
		if _, err := e.brjJoinerCtx(bg, b, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.brjJoinerCtx(bg, 0, 1); err == nil {
		t.Fatal("a mask build at bound 0 succeeded")
	}
	if e.masks.Len() != 2 {
		t.Fatalf("%d mask sets resident after a failed build, want the 2 built before it", e.masks.Len())
	}

	for i := 0; i < maskCacheCapacity; i++ {
		e.maskSlots <- struct{}{} // as many builds as may run hold the gate
	}
	built := e.maskBuild.Stats().BuildTime
	ctx, cancel := context.WithCancel(bg)
	errc := make(chan error, 1)
	go func() {
		_, err := e.brjJoinerCtx(ctx, 128, 1)
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("a mask build returned (%v) while %d others held the gate", err, maskCacheCapacity)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("the canceled build's caller got %v", err)
	}
	for e.maskBuild.Stats().BuildTime == built { // the abandoned build has returned
		runtime.Gosched()
	}
	for i := 0; i < maskCacheCapacity; i++ {
		<-e.maskSlots
	}
	for _, b := range []float64{32, 64} {
		if _, ok := e.masks.Get(b); !ok {
			t.Fatalf("a failed or canceled build evicted the resident ε%g set", b)
		}
	}

	if _, err := e.brjJoinerCtx(bg, 128, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.masks.Get(32); ok || e.masks.Len() != 2 {
		t.Errorf("a third bound's build kept %d sets, ε32 among them: %v; want ε32, the least recently used, evicted", e.masks.Len(), ok)
	}
}
