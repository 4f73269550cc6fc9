package distbound

import (
	"context"
	"testing"
)

// TestResponseProbeCounters pins the probe metering of the resident path:
// pointidx responses report the work the request did — unique cover-plan
// ranges probed by a base fill, live delta rows newly inverted — so a warm
// request reports zeros; every other strategy always reports zero — the
// counters meter the probe economy only pointidx has. The dataset's
// counters sum the work of its reads and its maintainer: an append's rows
// are inverted once, by whichever got there first.
func TestResponseProbeCounters(t *testing.T) {
	e, ds, ps := requestFixture(t)
	ctx := context.Background()
	pidx := StrategyPointIdx
	do := func(aggs ...Agg) Response {
		t.Helper()
		resp, err := e.Do(ctx, Request{Dataset: ds, Aggs: aggs, Bound: 16, Strategy: &pidx})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := do(Count, Sum)
	if resp.RangesProbed <= 0 {
		t.Errorf("RangesProbed %d on the first pointidx run", resp.RangesProbed)
	}
	// The fixture's delta: 4000 appended, the first 1000 deleted again —
	// dead rows must not be counted as probed.
	const liveDelta = 3000
	if resp.DeltaProbed != liveDelta {
		t.Errorf("DeltaProbed %d, want %d (live delta rows only)", resp.DeltaProbed, liveDelta)
	}
	ranges := resp.RangesProbed
	if resp = do(Count, Sum); resp.RangesProbed != 0 || resp.DeltaProbed != 0 {
		t.Errorf("warm repeat reports {%d %d}, want no work", resp.RangesProbed, resp.DeltaProbed)
	}
	if st := ds.Stats(); st.RangesProbed != ranges || st.DeltaProbed != liveDelta {
		t.Errorf("dataset counters {%d %d} after one cold read that did {%d %d}", st.RangesProbed, st.DeltaProbed, ranges, liveDelta)
	}
	// An append's rows are inverted exactly once, by the maintainer or by
	// the read racing it; after the maintainer, a read does nothing. A base
	// delete costs the next read a refill.
	for _, wait := range []bool{false, true} {
		before := ds.Stats().DeltaProbed
		if _, err := ds.Append(ps.Pts[:25], ps.Weights[:25]); err != nil {
			t.Fatal(err)
		}
		if wait {
			waitMaintained(ds)
		}
		resp = do(Count, Sum)
		waitMaintained(ds)
		if got := ds.Stats().DeltaProbed - before; resp.RangesProbed != 0 || resp.DeltaProbed > 25 || got != 25 {
			t.Errorf("25 appends, maintainer waited for: %v: the read did {%d %d}, %d rows inverted in all, want 25",
				wait, resp.RangesProbed, resp.DeltaProbed, got)
		}
		if wait && resp.DeltaProbed != 0 {
			t.Errorf("read after the maintainer inverted %d rows, want 0", resp.DeltaProbed)
		}
	}
	ds.Delete(0)
	if resp = do(Count, Sum); resp.RangesProbed != ranges || resp.DeltaProbed != 0 {
		t.Errorf("read after a base delete reports {%d %d}, want {%d 0}", resp.RangesProbed, resp.DeltaProbed, ranges)
	}

	ds.Compact()
	resp = do(Count)
	if resp.DeltaProbed != 0 {
		t.Errorf("DeltaProbed %d after compaction, want 0", resp.DeltaProbed)
	}
	if resp.RangesProbed != ranges {
		t.Errorf("RangesProbed changed across compaction (%d → %d); the plan depends only on regions and bound",
			ranges, resp.RangesProbed)
	}

	// Streaming strategies never touch the plan.
	act := StrategyACT
	resp, err := e.Do(ctx, Request{Points: ps, Aggs: []Agg{Count}, Bound: 16, Strategy: &act})
	if err != nil {
		t.Fatal(err)
	}
	if resp.RangesProbed != 0 || resp.DeltaProbed != 0 {
		t.Errorf("streaming response carries probe counters {%d %d}", resp.RangesProbed, resp.DeltaProbed)
	}
}

// TestColdReadProbesEveryCoverRange pins what a cold pointidx read pays: it
// probes every region's every cover range of the bound's resident cover set,
// and a warm repeat probes none.
func TestColdReadProbesEveryCoverRange(t *testing.T) {
	e, ds, _ := requestFixture(t)
	ctx := context.Background()

	cold, err := e.Do(ctx, Request{Dataset: ds, Aggs: []Agg{Count}, Bound: 16})
	if err != nil {
		t.Fatal(err)
	}
	ce, ok := coverAt(e, 16)
	if !ok {
		t.Fatal("cover set at bound 16 not resident after a pointidx read")
	}
	if ranges := ce.set.NumRanges(); cold.RangesProbed != ranges {
		t.Errorf("the cold read probed %d ranges, the cover set holds %d", cold.RangesProbed, ranges)
	}
	warm, err := e.Do(ctx, Request{Dataset: ds, Aggs: []Agg{Count}, Bound: 16})
	if err != nil {
		t.Fatal(err)
	}
	if warm.RangesProbed != 0 {
		t.Errorf("the warm repeat probed %d ranges, want 0", warm.RangesProbed)
	}
}

// TestWarmResidentDoAllocationFree is the zero-allocation acceptance
// criterion as a regression test: a warm single-threaded resident Do whose
// responses are released must not allocate — not in planning (pooled maps),
// not in artifact lookup (closure-free cache hit), not in execution
// (published partials merged into pooled result columns) — on a compact
// dataset and on one carrying a delta the published state already holds.
func TestWarmResidentDoAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool reuse; allocation counts are meaningless under it")
	}
	e, ds, ps := requestFixture(t)
	ds.Compact()
	ctx := context.Background()
	// The strategy is pinned: the gate is about the execution path, not the
	// plan choice (the planner still runs and must not allocate either).
	pidx := StrategyPointIdx
	req := Request{Dataset: ds, Aggs: []Agg{Count, Sum, Min}, Bound: 16, Strategy: &pidx, Workers: 1}
	for _, state := range []string{"compact", "delta, watermark current"} {
		// Warm plan, covers, partials and pools.
		for i := 0; i < 3; i++ {
			resp, err := e.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Release()
		}
		if allocs := testing.AllocsPerRun(50, func() {
			resp, err := e.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Release()
		}); allocs > 0 {
			t.Errorf("%s: warm resident Do allocates %.1f times per call, want 0", state, allocs)
		}
		if _, err := ds.Append(ps.Pts[:500], ps.Weights[:500]); err != nil {
			t.Fatal(err)
		}
		waitMaintained(ds) // its pass allocates, and must not land in the count
	}
}

// TestResponseReleaseSemantics: releasing recycles the backing storage
// (observable as aliasing between a released response's columns and the
// next one's), double-release and zero-value release are no-ops, and an
// unreleased response's results are never overwritten by later requests.
func TestResponseReleaseSemantics(t *testing.T) {
	e, ds, _ := requestFixture(t)
	ctx := context.Background()
	pidx := StrategyPointIdx
	req := Request{Dataset: ds, Aggs: []Agg{Count}, Bound: 16, Strategy: &pidx, Workers: 1}

	var zero Response
	zero.Release() // must not panic

	kept, err := e.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	keptCounts := append([]int64(nil), kept.Results[0].Counts...)

	released, err := e.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	relSlice := released.Results[0].Counts
	released.Release()
	released.Release() // double release is a no-op
	if released.Results != nil {
		t.Error("Release left Results attached")
	}

	next, err := e.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	// Under -race, sync.Pool drops Puts at random, so recycling is only
	// observable in a regular build.
	if !raceEnabled && &next.Results[0].Counts[0] != &relSlice[0] {
		t.Error("released storage was not recycled by the next request")
	}
	for ri := range keptCounts {
		if kept.Results[0].Counts[ri] != keptCounts[ri] {
			t.Fatalf("unreleased response mutated at region %d", ri)
		}
	}
	next.Release()
}
