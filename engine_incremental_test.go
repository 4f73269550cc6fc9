package distbound

import (
	"context"
	"testing"
	"time"
)

// TestResidentNeverFallsBackWhileWarm closes ROADMAP item 3's hypothesis —
// "the planner's delta penalty tips resident queries back to streaming joins
// over a materialised live set" — with a test: while the joiner is warm, an
// unforced request on a registered dataset plans pointidx at every delta
// size below the compaction threshold, even with the streaming strategies'
// build artifacts resident and no repetitions to amortize anything over.
// The planner is charged what a run owes — the rows appended since the last
// read — not the whole tail, and the executed counters agree with it.
func TestResidentNeverFallsBackWhileWarm(t *testing.T) {
	e, ds, ps := requestFixture(t)
	e.SetResultCacheCapacity(0)
	e.SetWorkers(1)
	ds.Compact()
	ctx := context.Background()
	// At ε = 64 the raster join is cheap enough that charging the whole tail
	// tipped this fixture to brj from a ~40k-row delta on.
	bounds := []float64{16, 64}
	aggs := []Agg{Count, Sum, Avg}

	// Make every alternative as attractive as it can be: builds paid.
	for _, bound := range bounds {
		for _, s := range []Strategy{StrategyExact, StrategyACT, StrategyBRJ, StrategyPointIdx} {
			resp, err := e.Do(ctx, Request{Dataset: ds, Aggs: aggs, Bound: bound, Strategy: &s})
			if err != nil {
				t.Fatal(err)
			}
			resp.Release()
		}
	}

	threshold := ds.CompactionThreshold()
	ds.SetCompactionThreshold(0) // the delta must survive to the threshold's edge
	const chunk = 4096
	for delta := chunk; delta < threshold; delta += chunk {
		if _, err := ds.Append(ps.Pts[:chunk], ps.Weights[:chunk]); err != nil {
			t.Fatal(err)
		}
		for _, bound := range bounds {
			resp, err := e.Do(ctx, Request{Dataset: ds, Aggs: aggs, Bound: bound})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Strategy != StrategyPointIdx {
				t.Fatalf("ε %g, delta %d: an unforced request fell back to %v\n%s", bound, delta, resp.Strategy, resp.Plan.Explain())
			}
			if resp.RangesProbed != 0 || resp.DeltaProbed != chunk {
				t.Fatalf("ε %g, delta %d: the read did {%d %d} of work, want only the %d new rows inverted",
					bound, delta, resp.RangesProbed, resp.DeltaProbed, chunk)
			}
			if resp.Plan.DeltaFraction == 0 {
				t.Fatalf("ε %g, delta %d: the plan hides the un-compacted tail", bound, delta)
			}
			resp.Release()
		}
	}
	// The charge follows the joiner's state, not the dataset's: with its
	// partials gone the same request owes — and is charged — the probe and
	// the whole tail again.
	req := Request{Dataset: ds, Aggs: aggs, Bound: 16}
	warm := e.planRequest(req, 1, nil).Costs[StrategyPointIdx].PerRun
	e.dropPartials(ds, 16)
	cold := e.planRequest(req, 1, nil).Costs[StrategyPointIdx].PerRun
	if warm != 0 || !(cold > 0) {
		t.Fatalf("pointidx per-run cost: warm joiner %g, cold %g; want 0 and > 0", warm, cold)
	}
}

// TestBackgroundCompactionRefreshesJoiners pins who pays for a compaction's
// new base: a threshold-triggered compaction refreshes the dataset's ready
// cover artifacts on its own goroutine, so the first read afterwards does no
// fill; a synchronous Compact never does that work on its caller's time, so
// the next read does.
func TestBackgroundCompactionRefreshesJoiners(t *testing.T) {
	e, ds, ps, _ := residentFixture(t, 4000)
	e.SetResultCacheCapacity(0)
	ctx := context.Background()
	pidx := StrategyPointIdx
	read := func(bound float64, aggs ...Agg) Response {
		t.Helper()
		resp, err := e.Do(ctx, Request{Dataset: ds, Aggs: aggs, Bound: bound, Strategy: &pidx})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Two ready joiners with different filled columns; a third bound stays
	// unbuilt and must stay that way.
	for _, resp := range []Response{read(16, Count, Sum), read(64, Count, Min, Max)} {
		resp.Release()
	}

	ds.SetCompactionThreshold(100)
	if _, err := ds.Append(ps.Pts[:150], ps.Weights[:150]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for ds.Generation() == 0 || ds.compacting.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("background compaction did not finish (stats %+v)", ds.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	ds.SetCompactionThreshold(0)
	for _, c := range []struct {
		bound float64
		aggs  []Agg
	}{{16, []Agg{Count, Sum}}, {64, []Agg{Count, Min, Max}}} {
		resp := read(c.bound, c.aggs...)
		if resp.RangesProbed != 0 || resp.DeltaProbed != 0 {
			t.Errorf("bound %g: first read after a background compaction did {%d %d} of work; the compaction goroutine should have refilled",
				c.bound, resp.RangesProbed, resp.DeltaProbed)
		}
		resp.Release()
	}
	if e.covers.ContainsReady(32) {
		t.Error("the refresh built a cover artifact nobody asked for")
	}

	if _, err := ds.Append(ps.Pts[:10], ps.Weights[:10]); err != nil {
		t.Fatal(err)
	}
	ds.Compact()
	resp := read(16, Count, Sum)
	if resp.RangesProbed == 0 {
		t.Error("a synchronous Compact refreshed the joiners on its caller's time")
	}
	resp.Release()
}
