package distbound

import (
	"context"
	"math/rand"
	"testing"

	"distbound/internal/data"
	"distbound/internal/testutil"
)

// sameColumns reports whether two result sets are bit-identical, column by
// column — the equality the result cache owes its callers.
func sameColumns(t *testing.T, phase string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", phase, len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		if g.Agg != w.Agg {
			t.Fatalf("%s: result %d is %v, want %v", phase, k, g.Agg, w.Agg)
		}
		for i := range w.Counts {
			if g.Counts[i] != w.Counts[i] {
				t.Fatalf("%s: %v count diverges at region %d: %d vs %d", phase, g.Agg, i, g.Counts[i], w.Counts[i])
			}
		}
		for i := range w.Sums {
			if g.Sums[i] != w.Sums[i] {
				t.Fatalf("%s: %v sum diverges at region %d", phase, g.Agg, i)
			}
		}
		for i := range w.Extremes {
			if g.Extremes[i] != w.Extremes[i] && !(g.Extremes[i] != g.Extremes[i] && w.Extremes[i] != w.Extremes[i]) {
				t.Fatalf("%s: %v extreme diverges at region %d", phase, g.Agg, i)
			}
		}
	}
}

func cloneResults(rs []Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{
			Agg:      r.Agg,
			Counts:   append([]int64(nil), r.Counts...),
			Sums:     append([]float64(nil), r.Sums...),
			Extremes: append([]float64(nil), r.Extremes...),
		}
	}
	return out
}

// TestCachedDoHitAndInvalidation pins the cache's contract end to end: a
// repeated request is a hit serving bit-identical results, and every
// mutation class — Append, Delete, Compact — bumps the epoch and strands
// the warm entry, so the next request executes (and re-warms).
func TestCachedDoHitAndInvalidation(t *testing.T) {
	e, ds, _ := requestFixture(t)
	ctx := context.Background()
	req := Request{Dataset: ds, Aggs: []Agg{Count, Sum, Min, Max}, Bound: 16, Workers: 1}

	first, err := e.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	executed := cloneResults(first.Results)
	wantStrategy := first.Strategy
	first.Release()
	if st := e.ResultCacheStats(); st.Hits != 0 || st.Misses != 1 {
		t.Fatalf("after cold request: %+v, want 1 miss", st)
	}

	second, err := e.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st := e.ResultCacheStats(); st.Hits != 1 {
		t.Fatalf("repeat request did not hit: %+v", st)
	}
	sameColumns(t, "warm hit", second.Results, executed)
	if second.Strategy != wantStrategy {
		t.Fatalf("hit reports strategy %v, executed %v", second.Strategy, wantStrategy)
	}
	if second.Plan.Strategy != wantStrategy {
		t.Fatal("hit lost the plan")
	}
	second.Release()

	epoch := ds.Stats().Epoch
	mutate := []struct {
		name string
		do   func()
	}{
		{"append", func() {
			if _, err := ds.Append([]Point{{X: 100, Y: 100}}, []float64{0.5}); err != nil {
				t.Fatal(err)
			}
		}},
		{"delete", func() { ds.Delete(11) }},
		{"compact", ds.Compact},
	}
	for _, m := range mutate {
		before := e.ResultCacheStats()
		m.do()
		if got := ds.Stats().Epoch; got != epoch+1 {
			t.Fatalf("%s: epoch %d, want %d", m.name, got, epoch+1)
		}
		epoch++
		resp, err := e.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
		after := e.ResultCacheStats()
		if after.Hits != before.Hits || after.Misses != before.Misses+1 {
			t.Fatalf("%s: post-mutation request served stale cache: before %+v after %+v", m.name, before, after)
		}
		// The miss re-warmed the new epoch.
		again, err := e.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		again.Release()
		if got := e.ResultCacheStats(); got.Hits != after.Hits+1 {
			t.Fatalf("%s: request after re-warm did not hit: %+v", m.name, got)
		}
	}
}

// TestResultCacheBypasses: request shapes the cache must not serve — ad-hoc
// point sets, Explain requests — never touch it, a strategy override is
// keyed apart from the planner's choice, and a disabled cache (capacity 0)
// executes everything.
func TestResultCacheBypasses(t *testing.T) {
	e, ds, ps := requestFixture(t)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		resp, err := e.Do(ctx, Request{Points: ps, Aggs: []Agg{Count}, Bound: 16, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	if st := e.ResultCacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("ad-hoc requests touched the result cache: %+v", st)
	}

	for i := 0; i < 2; i++ {
		resp, err := e.Do(ctx, Request{Dataset: ds, Aggs: []Agg{Count}, Bound: 16, Explain: true, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Explain == "" {
			t.Fatal("Explain missing")
		}
		resp.Release()
	}
	if st := e.ResultCacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("Explain requests touched the result cache: %+v", st)
	}

	// Planner-choice and override are distinct keys: the override's first
	// use executes even though the planner-choice entry is warm.
	plain := Request{Dataset: ds, Aggs: []Agg{Count}, Bound: 16, Workers: 1}
	for i := 0; i < 2; i++ {
		resp, err := e.Do(ctx, plain)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	st := e.ResultCacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("planner-choice warm-up: %+v", st)
	}
	pidx := StrategyPointIdx
	forced := plain
	forced.Strategy = &pidx
	resp, err := e.Do(ctx, forced)
	if err != nil {
		t.Fatal(err)
	}
	resp.Release()
	if got := e.ResultCacheStats(); got.Misses != st.Misses+1 {
		t.Fatalf("override was served from the planner-choice entry: %+v", got)
	}

	// Disabling is a full bypass: no hits, and no miss accounting either —
	// the executed path must not pay for a cache that cannot admit anything.
	e.SetResultCacheCapacity(0)
	before := e.ResultCacheStats()
	for i := 0; i < 2; i++ {
		resp, err := e.Do(ctx, plain)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	if got := e.ResultCacheStats(); got.Hits != before.Hits || got.Misses != before.Misses {
		t.Fatalf("disabled cache still probed: before %+v after %+v", before, got)
	}
}

// TestCachedReleaseIsRefcount: hits share one entry's columns, releasing a
// hit never recycles pooled scratch (a later executed request cannot
// corrupt a released-then-read hit's siblings), and releasing the same
// Response copy twice stays a no-op.
func TestCachedReleaseIsRefcount(t *testing.T) {
	e, ds, _ := requestFixture(t)
	ctx := context.Background()
	req := Request{Dataset: ds, Aggs: []Agg{Count, Sum}, Bound: 16, Workers: 1}

	warm, err := e.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	warm.Release()

	h1, err := e.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := e.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if &h1.Results[0].Counts[0] != &h2.Results[0].Counts[0] {
		t.Fatal("two hits do not share the entry's columns")
	}
	snapshot := cloneResults(h2.Results)
	h1.Release()
	if h1.Results != nil {
		t.Fatal("Release left Results attached")
	}
	h1.Release() // releasing the same copy twice is a no-op

	// Churn the pool with executed requests at other bounds: if h1's
	// Release had handed shared storage to the pool, these would overwrite
	// h2's columns.
	for _, bound := range []float64{8, 24, 32} {
		resp, err := e.Do(ctx, Request{Dataset: ds, Aggs: []Agg{Count, Sum}, Bound: bound, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	sameColumns(t, "surviving hit after pool churn", h2.Results, snapshot)
	h2.Release()
}

// TestCachedDoAllocationFree: the cache-hit path — key computation, lookup,
// refcount acquire, by-value Response, Release — allocates nothing.
func TestCachedDoAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	e, ds, _ := requestFixture(t)
	ctx := context.Background()
	req := Request{Dataset: ds, Aggs: []Agg{Count, Sum, Min}, Bound: 16, Workers: 1}
	for i := 0; i < 2; i++ {
		resp, err := e.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	if st := e.ResultCacheStats(); st.Hits == 0 {
		t.Fatal("warm-up did not populate the cache")
	}
	if allocs := testing.AllocsPerRun(50, func() {
		resp, err := e.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}); allocs > 0 {
		t.Errorf("cache-hit Do allocates %.1f times per call, want 0", allocs)
	}
}

// FuzzCachedDo interleaves Append/Delete/Compact with queries against two
// engines fed the identical mutation stream — one caching, one with the
// cache disabled (the executed oracle). Any divergence is a stale hit: the
// cache serving an epoch the mutations have moved past. The strategy is
// pinned to pointidx so both sides fold in the same order and every column
// — COUNT, SUM, MIN, MAX — must match bit for bit.
func FuzzCachedDo(f *testing.F) {
	f.Add([]byte{3, 0, 4, 1, 3, 2, 4, 0, 0, 3, 1, 4})
	f.Add([]byte{4, 4, 4, 4})
	f.Add([]byte{0, 3, 0, 3, 2, 3, 1, 3, 2, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		regions := dataRegions(101, 4, 4, 6)
		pool, _ := data.TaxiPoints(102, 6_000)
		weights := testutil.ExactWeights(rand.New(rand.NewSource(103)), len(pool))

		cachedE := NewEngine(regions)
		plainE := NewEngine(regions)
		plainE.SetResultCacheCapacity(0)
		newDS := func(e *Engine) *Dataset {
			ds, err := e.RegisterPoints("fuzz", pool[:3_000], weights[:3_000])
			if err != nil {
				t.Fatal(err)
			}
			ds.SetCompactionThreshold(0)
			return ds
		}
		dsC, dsP := newDS(cachedE), newDS(plainE)

		// IDs are deterministic (same engine domain, same input order), so
		// one live list mirrors both datasets.
		live := make([]uint64, 0, len(pool))
		for id := uint64(0); id < 3_000; id++ {
			live = append(live, id)
		}
		off := 3_000
		ctx := context.Background()
		pidx := StrategyPointIdx
		bounds := []float64{8, 16, 32}
		aggSets := [][]Agg{{Count}, {Count, Sum, Min, Max}}
		query := func(op byte) {
			req := Request{
				Dataset:  dsC,
				Aggs:     aggSets[int(op>>4)%len(aggSets)],
				Bound:    bounds[int(op)%len(bounds)],
				Strategy: &pidx,
				Workers:  1,
			}
			got, err := cachedE.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			req.Dataset = dsP
			want, err := plainE.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			sameColumns(t, "cached vs executed", got.Results, want.Results)
			got.Release()
			want.Release()
		}
		for i, op := range ops {
			switch op % 5 {
			case 0: // append a small batch
				n := 1 + int(op/16)*8
				if off+n > len(pool) {
					continue
				}
				idsC, err := dsC.Append(pool[off:off+n], weights[off:off+n])
				if err != nil {
					t.Fatal(err)
				}
				idsP, err := dsP.Append(pool[off:off+n], weights[off:off+n])
				if err != nil {
					t.Fatal(err)
				}
				if idsC[0] != idsP[0] {
					t.Fatalf("engines diverged on assigned IDs: %d vs %d", idsC[0], idsP[0])
				}
				live = append(live, idsC...)
				off += n
			case 1: // delete one live point
				if len(live) == 0 {
					continue
				}
				k := (int(op) + i*7919) % len(live)
				dsC.Delete(live[k])
				dsP.Delete(live[k])
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			case 2:
				dsC.Compact()
				dsP.Compact()
			default:
				query(op)
			}
		}
		// Close the stream with one query per bound so every mutation tail
		// is checked against the oracle.
		for b := byte(0); b < 3; b++ {
			query(b)
		}
	})
}

// BenchmarkCachedDo is the result-cache acceptance benchmark: the warm
// cache-hit Do against the warm executed Do on the identical request at
// bound 8. CI gates the hit path at 0 allocs/op; the acceptance criterion
// is hit ≥ 10× faster than executed.
func BenchmarkCachedDo(b *testing.B) {
	pts, weights := data.TaxiPoints(1, benchPoints)
	regions := data.Regions(data.Census(13, benchCensus))
	e := NewEngine(regions)
	ds, err := e.RegisterPoints("bench", pts, weights)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Dataset: ds, Aggs: []Agg{Count, Sum}, Bound: 8, Workers: 1}

	b.Run("executed", func(b *testing.B) {
		e.SetResultCacheCapacity(0)
		resp, err := e.Do(ctx, req) // warm the cover artifact and pools
		if err != nil {
			b.Fatal(err)
		}
		resp.Release()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := e.Do(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			resp.Release()
		}
	})
	b.Run("hit", func(b *testing.B) {
		e.SetResultCacheCapacity(DefaultResultCacheCapacity)
		resp, err := e.Do(ctx, req) // the one executed miss that warms the entry
		if err != nil {
			b.Fatal(err)
		}
		resp.Release()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := e.Do(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			resp.Release()
		}
	})
}
