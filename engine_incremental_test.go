package distbound

import (
	"context"
	"testing"
	"time"
)

// TestResidentNeverFallsBackWhileWarm pins what a warm resident read costs
// under ingest: an unforced request on a registered dataset runs pointidx at
// every delta size below the compaction threshold, even with the streaming
// strategies' build artifacts resident, and each
// read does only what it owes — the rows appended since the last read
// inverted, no range probed.
func TestResidentNeverFallsBackWhileWarm(t *testing.T) {
	e, ds, ps := requestFixture(t)
	ds.Compact()
	ctx := context.Background()
	bounds := []float64{64, 16} // coarse-first: each is served at its own level
	aggs := []Agg{Count, Sum, Avg}

	// Make every alternative as attractive as it can be: builds paid.
	for _, bound := range bounds {
		for _, s := range []Strategy{StrategyExact, StrategyACT, StrategyBRJ, StrategyPointIdx} {
			resp, err := e.Do(ctx, Request{Dataset: ds, Aggs: aggs, Bound: bound, Strategy: &s, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			resp.Release()
		}
	}

	// The fixture turns auto-compaction off, so the delta survives to the
	// default threshold's edge.
	const chunk = 4096
	for delta := chunk; delta < DefaultCompactionThreshold; delta += chunk {
		if _, err := ds.Append(ps.Pts[:chunk], ps.Weights[:chunk]); err != nil {
			t.Fatal(err)
		}
		for _, bound := range bounds {
			resp, err := e.Do(ctx, Request{Dataset: ds, Aggs: aggs, Bound: bound, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Strategy != StrategyPointIdx {
				t.Fatalf("ε %g, delta %d: an unforced request fell back to %v", bound, delta, resp.Strategy)
			}
			if resp.ServedBound != ownBound(e, bound) {
				t.Fatalf("ε %g, delta %d: served at %g m, not at its own level", bound, delta, resp.ServedBound)
			}
			if resp.RangesProbed != 0 || resp.DeltaProbed != chunk {
				t.Fatalf("ε %g, delta %d: the read did {%d %d} of work, want only the %d new rows inverted",
					bound, delta, resp.RangesProbed, resp.DeltaProbed, chunk)
			}
			resp.Release()
		}
	}
}

// TestBackgroundCompactionRefreshesJoiners pins who pays for a compaction's
// new base: a threshold-triggered compaction refreshes the dataset's ready
// cover artifacts on its own goroutine, so the first read afterwards does no
// fill; a synchronous Compact never does that work on its caller's time, so
// the next read does.
func TestBackgroundCompactionRefreshesJoiners(t *testing.T) {
	e, ds, ps, _ := residentFixture(t, 4000)
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
	for ds.Stats().Generation == 0 || ds.compacting.Load() {
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
	if coverReady(e, 32) {
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
