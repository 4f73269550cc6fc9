package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"distbound"
	"distbound/internal/testutil"
)

// TestShardedBuildsEachBoundOnce: the cover sets belong to the one engine
// behind the shards, so first queries at three bounds on three levels, asked
// coarse-first so that no ready level serves the next, cost three builds
// whether the partition is 1, 3 or 8 wide; the sets' bytes are the same for
// every width, and only the per-shard state scales with it.
func TestShardedBuildsEachBoundOnce(t *testing.T) {
	bounds := []float64{256, 64, 16}
	coverBytes := 0
	for _, n := range []int{1, 3, 8} {
		s, _, _, _, _, _, _ := fixture(t, 3, 12000, n)
		s.SetResultCacheCapacity(0)
		for rep := 0; rep < 2; rep++ {
			for _, b := range bounds {
				if _, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: b}); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := s.Stats()
		if st.Covers.Builds != int64(len(bounds)) {
			t.Errorf("%d shards: %d cover builds for %d bounds", s.NumShards(), st.Covers.Builds, len(bounds))
		}
		if st.Covers.BuildTime <= 0 {
			t.Errorf("%d shards: no build time recorded", s.NumShards())
		}
		if coverBytes == 0 {
			coverBytes = st.CoverBytes
		}
		if st.CoverBytes != coverBytes || coverBytes == 0 {
			t.Errorf("%d shards: %d B of cover sets, want the same %d B at every width", s.NumShards(), st.CoverBytes, coverBytes)
		}
		for i, sh := range st.PerShard {
			if sh.CoverStateBytes <= 0 {
				t.Errorf("%d shards: shard %d reports no state of its own", s.NumShards(), i)
			}
		}
	}
}

// TestShardedColdBurstCoalesces: sixteen cold first queries at one bound are
// one build, and one waiter walking away neither fails the build for the
// others nor restarts it. Run under -race.
func TestShardedColdBurstCoalesces(t *testing.T) {
	s, _, _, _, _, _, _ := fixture(t, 5, 12000, 4)
	s.SetResultCacheCapacity(0)
	const bound, callers = 8, 16
	quitter, quit := context.WithCancel(context.Background())
	defer quit()
	var wg sync.WaitGroup
	resps := make([]Response, callers)
	errs := make([]error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			if g == 0 {
				ctx = quitter
			}
			resps[g], errs[g] = s.Do(ctx, Request{Aggs: allAggs, Bound: bound})
		}(g)
	}
	// Cancel once the build has a second waiter (a build its only caller
	// abandons is rightly canceled and restarted by the next arrival).
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for waiting := true; waiting && s.Stats().Covers.Coalesced == 0; {
		select {
		case <-done:
			waiting = false
		case <-time.After(100 * time.Microsecond):
		}
	}
	quit()
	<-done

	if errs[0] != nil && !errors.Is(errs[0], context.Canceled) {
		t.Errorf("the canceled caller failed with %v", errs[0])
	}
	for g := 1; g < callers; g++ {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		for k, agg := range allAggs {
			testutil.CheckIdentical(t, fmt.Sprintf("caller %d %v", g, agg), resps[1].Results[k], resps[g].Results[k])
		}
	}
	if st := s.Stats().Covers; st.Builds != 1 {
		t.Errorf("%d cover builds for one cold bound under %d callers (coalesced %d)", st.Builds, callers, st.Coalesced)
	}
}

// TestShardedCloseDropsState: Close drops every shard's point-index state
// eagerly; the cover sets stay cached in the engine.
func TestShardedCloseDropsState(t *testing.T) {
	s, _, _, _, _, _, _ := fixture(t, 3, 8000, 4)
	if _, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: 32}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	st := s.Stats()
	if st.CoverBytes == 0 {
		t.Error("Close flushed the shared cover sets")
	}
	for i, sh := range st.PerShard {
		if sh.CoverStateBytes != 0 {
			t.Errorf("shard %d still holds %d B of state after Close", i, sh.CoverStateBytes)
		}
	}
}

// TestShardedScatterIsOneLevel: a scatter merges one level's answers.
//   - Held level: the seam between the cover resolution and the scatter hands
//     the scatter ε16's level while the rule serves its bound, ε64, from ε32's
//     — the state ε32 built in between would leave it in. Every shard still
//     answers at the held level, equal to the unsharded reference there.
//   - Checked merge: a part read at another level than the scatter's cover
//     fails the scatter. Here the cover is another engine's ε128 level, which
//     this engine has not built, so the shards read ε32's.
//   - Racing builds: six callers asking six bounds, each in its own order,
//     each get an answer served at or below its bound on one of the six
//     levels, equal to the reference there. Run under -race.
func TestShardedScatterIsOneLevel(t *testing.T) {
	s, _, e, ds, _, _, _ := fixture(t, 41, 12000, 8)
	s.SetResultCacheCapacity(0)
	ctx := context.Background()
	foreign, err := e.Cover(ctx, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []float64{32, 16} { // coarse-first: both levels are built
		if _, err := s.Do(ctx, Request{Aggs: allAggs, Bound: b}); err != nil {
			t.Fatal(err)
		}
	}
	held, err := s.engine.Cover(ctx, 16)
	if err != nil {
		t.Fatal(err)
	}
	if rule, err := s.engine.Cover(ctx, 64); err != nil || rule.Level() == held.Level() {
		t.Fatalf("the rule serves ε64 from level %d, want ε32's, not the held %d (%v)", rule.Level(), held.Level(), err)
	}
	t.Cleanup(func() { testHookResolved = nil })
	testHookResolved = func(*distbound.Cover) *distbound.Cover { return held }
	got, err := s.Do(ctx, Request{Aggs: allAggs, Bound: 64})
	if err != nil {
		t.Fatalf("scatter holding ε16's level: %v", err)
	}
	ref := unshardedDo(t, e, ds, allAggs, 16)
	if got.ServedBound != held.ServedBound() || ref.ServedBound != held.ServedBound() {
		t.Fatalf("served at %g m, reference at %g m, want the held %g m", got.ServedBound, ref.ServedBound, held.ServedBound())
	}
	for k, agg := range allAggs {
		testutil.CheckIdentical(t, fmt.Sprintf("held level %v", agg), ref.Results[k], got.Results[k])
	}
	testHookResolved = func(*distbound.Cover) *distbound.Cover { return foreign }
	if _, err := s.Do(ctx, Request{Aggs: allAggs, Bound: 128}); err == nil {
		t.Fatal("a scatter merged parts read at ε32's level under ε128's served bound")
	}
	testHookResolved = nil

	bounds := []float64{256, 128, 64, 32, 16, 8}
	s, _, e, ds, _, _, _ = fixture(t, 41, 12000, 8)
	s.SetResultCacheCapacity(0)
	// The reference, asked coarse-first, serves each bound at its own level.
	want := map[float64]distbound.Response{}
	for _, b := range bounds {
		resp := unshardedDo(t, e, ds, allAggs, b)
		want[resp.ServedBound] = resp
	}
	if len(want) != len(bounds) {
		t.Fatalf("the reference served %d bounds at %d levels", len(bounds), len(want))
	}
	const callers = 6
	type answer struct {
		bound float64
		resp  Response
	}
	answers := make([][]answer, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(g))).Perm(len(bounds)) {
				resp, err := s.Do(ctx, Request{Aggs: allAggs, Bound: bounds[i]})
				if err != nil {
					errs[g] = err
					return
				}
				answers[g] = append(answers[g], answer{bounds[i], resp})
			}
		}(g)
	}
	wg.Wait()
	for g := range answers {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		for _, a := range answers[g] {
			ref, ok := want[a.resp.ServedBound]
			if !ok || a.resp.ServedBound > a.bound {
				t.Fatalf("caller %d: bound %g served at %g m, not at or below it on one of the levels", g, a.bound, a.resp.ServedBound)
			}
			for k, agg := range allAggs {
				testutil.CheckIdentical(t, fmt.Sprintf("caller %d bound %g served at %g %v", g, a.bound, a.resp.ServedBound, agg), ref.Results[k], a.resp.Results[k])
			}
		}
	}
}
