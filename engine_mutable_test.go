package distbound

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distbound/internal/data"
)

// TestDatasetMutationLifecycle drives the public write API end to end:
// appends and deletes are immediately visible, compaction preserves results
// and bumps the generation, and the accounting (Stats, Len, Points) tracks.
func TestDatasetMutationLifecycle(t *testing.T) {
	e, ds, ps, regions := residentFixture(t, 5000)
	const bound = 16.0

	// Pin the strategy: the planner may legitimately switch strategies as
	// the delta grows, and BRJ counts are a different approximation, so the
	// growth/restore invariants below compare like with like.
	total := func() int64 {
		res, err := e.runDataset(ds, Count, bound, StrategyPointIdx, 1)
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, c := range res.Counts {
			n += c
		}
		return n
	}
	before := total()

	// Append a copy of the first 500 points: every matched region count
	// doubles for those points, so the total strictly grows.
	ids, err := ds.Append(ps.Pts[:500], ps.Weights[:500])
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 500 || ids[0] != 5000 {
		t.Fatalf("append ids wrong: %d ids, first %d", len(ids), ids[0])
	}
	if ds.Len() != 5500 {
		t.Errorf("Len %d after append, want 5500", ds.Len())
	}
	afterAppend := total()
	if afterAppend <= before {
		t.Errorf("total count %d did not grow after append (was %d)", afterAppend, before)
	}
	st := ds.Stats()
	if st.DeltaLive != 500 || st.Generation != 0 || st.Base != 5000 {
		t.Errorf("stats after append: %+v", st)
	}

	// Deleting the appended points restores the original results exactly.
	if n, err := ds.Delete(ids...); n != 500 || err != nil {
		t.Fatalf("deleted %d (%v), want 500", n, err)
	}
	if got := total(); got != before {
		t.Errorf("total %d after delete, want %d", got, before)
	}

	// Delete 1000 base points; totals shrink or stay equal per region.
	if n, err := ds.Delete(ids[:0]...); n != 0 || err != nil {
		t.Errorf("empty delete reported %d (%v)", n, err)
	}
	var baseIDs []uint64
	for id := uint64(0); id < 1000; id++ {
		baseIDs = append(baseIDs, id)
	}
	if n, err := ds.Delete(baseIDs...); n != 1000 || err != nil {
		t.Fatalf("deleted %d base points (%v), want 1000", n, err)
	}
	if ds.Len() != 4000 {
		t.Errorf("Len %d, want 4000", ds.Len())
	}
	afterDelete, err := e.runDataset(ds, Count, bound, StrategyPointIdx, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Compaction changes nothing observable except the generation.
	ds.Compact()
	if ds.Generation() != 1 {
		t.Errorf("generation %d after compaction", ds.Generation())
	}
	st = ds.Stats()
	if st.DeltaLive != 0 || st.DeltaDead != 0 || st.Tombstones != 0 || st.Base != 4000 || st.Live != 4000 {
		t.Errorf("stats after compaction: %+v", st)
	}
	afterCompact, err := e.runDataset(ds, Count, bound, StrategyPointIdx, 1)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range regions {
		if afterCompact.Counts[ri] != afterDelete.Counts[ri] {
			t.Fatalf("region %d: count %d pre-compaction != %d post", ri, afterDelete.Counts[ri], afterCompact.Counts[ri])
		}
	}

	// Points returns the 4000 survivors.
	pts, ws := ds.Points()
	if len(pts) != 4000 || len(ws) != 4000 {
		t.Errorf("Points returned %d/%d rows", len(pts), len(ws))
	}
}

// TestDatasetAppendVisibleToAllStrategies pins cross-strategy agreement on a
// mutated dataset: the streaming fallback must serve the live points (not
// the registration-time relation), so exact and pointidx answers track the
// same mutations.
func TestDatasetAppendVisibleToAllStrategies(t *testing.T) {
	e, ds, ps, regions := residentFixture(t, 3000)
	ids, err := ds.Append(ps.Pts[:300], ps.Weights[:300])
	if err != nil {
		t.Fatal(err)
	}
	ds.Delete(ids[:100]...)
	ds.Delete(0, 1, 2)

	pts, ws := ds.Points()
	want, err := BruteForceJoin(PointSet{Pts: pts, Weights: ws}, regions, Count)
	if err != nil {
		t.Fatal(err)
	}
	// Bound ≤ 0 forces the exact strategy through the materialized path.
	resp, err := e.Do(context.Background(), Request{Dataset: ds, Aggs: []Agg{Count}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != StrategyExact {
		t.Fatalf("bound 0 ran %v", resp.Strategy)
	}
	res := resp.Results[0]
	for ri := range regions {
		if res.Counts[ri] != want.Counts[ri] {
			t.Fatalf("region %d: exact count %d != brute force over live points %d",
				ri, res.Counts[ri], want.Counts[ri])
		}
	}
}

// TestDatasetAutoCompaction: crossing the threshold schedules a background
// compaction without any explicit Compact call.
func TestDatasetAutoCompaction(t *testing.T) {
	e, ds, ps, _ := residentFixture(t, 2000)
	_ = e
	if th := ds.compactThreshold.Load(); th != DefaultCompactionThreshold {
		t.Errorf("default threshold %d", th)
	}
	ds.SetCompactionThreshold(100)
	if _, err := ds.Append(ps.Pts[:150], ps.Weights[:150]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ds.Generation() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no background compaction after threshold crossing (stats %+v)", ds.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if ds.Len() != 2150 {
		t.Errorf("Len %d after auto-compaction, want 2150", ds.Len())
	}
	// Disabled threshold: delta accumulates.
	ds.SetCompactionThreshold(0)
	gen := ds.Generation()
	if _, err := ds.Append(ps.Pts[:150], ps.Weights[:150]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if ds.Generation() != gen {
		t.Error("auto-compaction ran with the threshold disabled")
	}
}

// TestMutableConcurrency races queries against Append, Delete, Compact and a
// final UnregisterPoints on one dataset. Run with -race. Queries must never
// panic or return torn results: the writer only ever appends from the
// reserve and deletes appended points, so the initial 20k points stay live
// throughout and every consistent snapshot's COUNT total is ≥ the initial
// total; the only acceptable error is the post-unregister handle rejection.
func TestMutableConcurrency(t *testing.T) {
	pts, weights := data.TaxiPoints(97, 30_000)
	regions := dataRegions(98, 4, 4, 16)
	e := NewEngine(regions)
	ds, err := e.RegisterPoints("live", pts[:20_000], weights[:20_000])
	if err != nil {
		t.Fatal(err)
	}
	ds.SetCompactionThreshold(500) // force frequent background compactions

	const bound = 16.0
	res, err := e.runDataset(ds, Count, bound, StrategyPointIdx, 1)
	if err != nil {
		t.Fatal(err)
	}
	var low int64
	for _, c := range res.Counts {
		low += c
	}

	var (
		wg         sync.WaitGroup
		stop       atomic.Bool
		unregister atomic.Bool
		failures   = make([]error, 8)
	)
	// Writer: appends the reserve in small batches, then deletes some of it,
	// compacts, and finally unregisters the dataset under the readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		var appended []uint64
		for off := 20_000; off < 30_000; off += 500 {
			ids, err := ds.Append(pts[off:off+500], weights[off:off+500])
			if err != nil {
				failures[0] = err
				return
			}
			appended = append(appended, ids...)
		}
		for i := 0; i < len(appended); i += 4 {
			ds.Delete(appended[i])
		}
		ds.Compact()
		unregister.Store(true)
		e.UnregisterPoints("live")
	}()

	for g := 1; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			aggs := []Agg{Count, Sum, Avg, Min, Max}
			for !stop.Load() {
				if g%2 == 0 {
					// Planner path: any strategy; only failure modes are
					// races/panics and non-unregister errors.
					agg := aggs[rng.Intn(len(aggs))]
					resp, err := e.Do(context.Background(), Request{Dataset: ds, Aggs: []Agg{agg}, Bound: bound, Repetitions: 100000})
					if err != nil {
						if unregister.Load() && strings.Contains(err.Error(), "not registered") {
							return
						}
						failures[g] = err
						return
					}
					if resp.Results[0].NumRegions() != len(regions) {
						failures[g] = errDrift
						return
					}
					continue
				}
				// Pinned point-index path: the count invariant holds for
				// every consistent snapshot (conservative covers are
				// deterministic, and the initial points are never deleted).
				res, err := e.runDataset(ds, Count, bound, StrategyPointIdx, 1)
				if err != nil {
					failures[g] = err
					return
				}
				var n int64
				for _, c := range res.Counts {
					n += c
				}
				if n < low {
					failures[g] = errDrift
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range failures {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
