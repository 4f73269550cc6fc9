package join

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/pointstore"
	"distbound/internal/raster"
	"distbound/internal/sfc"
)

// The incremental state of the resident execution — one published state per
// joiner, whose base partials an advance keeps while the base identity holds
// and whose delta accumulators it extends within a lineage — must be
// invisible in the answers. The harness below drives one
// mutable store through appends, deletes and compactions and asks every
// query twice: of a joiner that keeps its partials across the whole stream,
// and of a sibling over the same store whose partials are dropped before
// each query (re-execution from nothing). Every aggregate, SUM included,
// must match bit for bit; the weights are arbitrary floats, so an
// accumulation order that differed between one pass and many would show.

var foldBounds = [...]float64{4, 16, 64}

// foldTemplate is one bound's cover table beside the rasterizer's own ranges
// the per-region reference reads.
type foldTemplate struct {
	*PointIdxJoiner
	ref [][]raster.PosRange
}

// foldTemplates builds the per-bound cover plans once per process: they
// depend only on regions, domain, curve and bound, and at ε = 4 the
// rasterization is most of a second.
var foldTemplates = sync.OnceValue(func() []foldTemplate {
	store, err := pointstore.NewMutable(nil, nil, data.CityDomain(), sfc.Hilbert{})
	if err != nil {
		panic(err)
	}
	regions := data.Regions(data.Partition(32, 4, 4, 6))
	out := make([]foldTemplate, len(foldBounds))
	for i, b := range foldBounds {
		if out[i].PointIdxJoiner, err = NewPointIdxJoiner(regions, store, b, 0); err != nil {
			panic(err)
		}
		out[i].ref = refCovers(regions, out[i].PointIdxJoiner, b)
	}
	return out
})

// withSource returns a joiner sharing j's cover set over another store, with
// no state published.
func (j *PointIdxJoiner) withSource(src *pointstore.Mutable) *PointIdxJoiner {
	return j.CoverSet.Attach(src)
}

// weightsAsked reports whether any aggregate in aggs reads a weight column:
// the weight-pass bit AggregateMultiInto derives from its aggregate set.
func weightsAsked(aggs []Agg) bool { return needsOf(aggs) != (aggNeeds{}) }

// foldHarness is one store under mutation with, per bound, the joiner under
// test (inc) and the drop-and-recompute reference (ref).
type foldHarness struct {
	t        testing.TB
	store    *pointstore.Mutable
	inc, ref []*PointIdxJoiner
	pool     []geom.Point
	weights  []float64 // nil for a weightless dataset
	off      int       // next unused pool row
	baseIDs  []uint64  // live rows of the base column
	deltaIDs []uint64  // live rows of the delta tail
}

func newFoldHarness(t testing.TB, weighted bool) *foldHarness {
	t.Helper()
	pool, weights := data.TaxiPoints(77, 6000)
	if !weighted {
		weights = nil
	}
	const seedRows = 2000
	h := &foldHarness{t: t, pool: pool, weights: weights, off: seedRows}
	var seedWs []float64
	if weighted {
		seedWs = weights[:seedRows]
	}
	store, err := pointstore.NewMutable(pool[:seedRows], seedWs, data.CityDomain(), sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	h.store = store
	for id := uint64(0); id < seedRows; id++ {
		h.baseIDs = append(h.baseIDs, id)
	}
	for _, tpl := range foldTemplates() {
		h.inc = append(h.inc, tpl.withSource(store))
		h.ref = append(h.ref, tpl.withSource(store))
	}
	return h
}

func (h *foldHarness) append(n int) {
	h.t.Helper()
	if h.off+n > len(h.pool) {
		return
	}
	var ws []float64
	if h.weights != nil {
		ws = h.weights[h.off : h.off+n]
	}
	ids, err := h.store.Append(h.pool[h.off:h.off+n], ws)
	if err != nil {
		h.t.Fatal(err)
	}
	h.deltaIDs = append(h.deltaIDs, ids...)
	h.off += n
}

// deleteFrom removes the k-th (mod length) live ID of the list.
func (h *foldHarness) deleteFrom(ids *[]uint64, k int) {
	if len(*ids) == 0 {
		return
	}
	k %= len(*ids)
	if h.store.Delete((*ids)[k]) != 1 {
		h.t.Fatalf("row %d was not live", (*ids)[k])
	}
	(*ids)[k] = (*ids)[len(*ids)-1]
	*ids = (*ids)[:len(*ids)-1]
}

func (h *foldHarness) compact() {
	h.store.Compact()
	h.baseIDs = append(h.baseIDs, h.deltaIDs...)
	h.deltaIDs = h.deltaIDs[:0]
}

// allDeadCompact kills the whole delta tail first; with no tombstones
// pending that takes Mutable.Compact's fast path — new generation, empty
// delta, same base pointer.
func (h *foldHarness) allDeadCompact() {
	h.store.Delete(h.deltaIDs...)
	h.deltaIDs = h.deltaIDs[:0]
	h.compact()
}

// aggSubset maps a 5-bit mask onto a non-empty aggregate set; a weightless
// dataset answers COUNT only.
func (h *foldHarness) aggSubset(mask int) []Agg {
	if h.weights == nil {
		return []Agg{Count}
	}
	var aggs []Agg
	for i, a := range []Agg{Count, Sum, Avg, Min, Max} {
		if mask&(1<<i) != 0 {
			aggs = append(aggs, a)
		}
	}
	if len(aggs) == 0 {
		aggs = []Agg{Count}
	}
	return aggs
}

// query asks bound bi for aggs of the incremental joiner at the store's
// current snapshot, checks the answer against re-execution and the
// per-region reference, and returns the incremental run's ProbeStats.
func (h *foldHarness) query(bi int, aggs []Agg, workers int) ProbeStats {
	h.t.Helper()
	ctx, snap := context.Background(), h.store.Snapshot()
	n := h.inc[bi].NumRegions()
	got, want := NewResults(aggs, n), NewResults(aggs, n)
	stats, err := h.inc[bi].aggregateSnapshot(ctx, snap, weightsAsked(aggs), workers, got)
	if err != nil {
		h.t.Fatal(err)
	}
	h.ref[bi].dropPartials()
	full, err := h.ref[bi].aggregateSnapshot(ctx, snap, weightsAsked(aggs), 1, want)
	if err != nil {
		h.t.Fatal(err)
	}
	if full.RangesProbed != h.ref[bi].NumRanges() || full.DeltaProbed != snap.DeltaLiveLen() {
		h.t.Fatalf("re-execution reported %+v, want the whole plan and every live delta row", full)
	}
	for k := range aggs {
		bitIdentical(h.t, aggs[k].String()+" incremental vs recomputed", want[k], got[k])
	}
	perRegion := aggregatePerRegion(snap, foldTemplates()[bi].ref, aggs)
	for k, agg := range aggs {
		for ri := range perRegion[k].Counts {
			if got[k].Counts[ri] != perRegion[k].Counts[ri] {
				h.t.Fatalf("%v region %d: count %d, per-region reference %d", agg, ri, got[k].Counts[ri], perRegion[k].Counts[ri])
			}
			if e := perRegion[k].Extremes; e != nil && math.Float64bits(e[ri]) != math.Float64bits(got[k].Extremes[ri]) {
				h.t.Fatalf("%v region %d: extreme %v, per-region reference %v", agg, ri, got[k].Extremes[ri], e[ri])
			}
			// SUM differs from the reference only by how the delta tail's
			// terms associate.
			if s := perRegion[k].Sums; s != nil && math.Abs(s[ri]-got[k].Sums[ri]) > 1e-9*(1+math.Abs(s[ri])) {
				h.t.Fatalf("%v region %d: sum %v, per-region reference %v", agg, ri, got[k].Sums[ri], s[ri])
			}
		}
	}
	return stats
}

// run applies a fuzz op stream, two bytes per op.
func (h *foldHarness) run(ops []byte) {
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], int(ops[i+1])
		switch op % 8 {
		case 0:
			h.append(1 + arg%16)
		case 1:
			h.deleteFrom(&h.baseIDs, arg*131+i)
		case 2:
			h.deleteFrom(&h.deltaIDs, arg*131+i)
		case 3:
			h.compact()
		case 4:
			h.allDeadCompact()
		default:
			workers := 1
			if op&8 != 0 {
				workers = 4
			}
			h.query(arg%len(foldBounds), h.aggSubset(arg>>2), workers)
		}
	}
}

// FuzzIncrementalFold drives random append / delete-base-row /
// delete-delta-row / compact / all-dead-compact / query streams (ε ∈ {4, 16,
// 64}, random aggregate subset, workers ∈ {1, 4}) and requires, at every
// query, incremental ≡ dropped-and-recomputed bit-for-bit on all five
// aggregates and ≡ the per-region reference under its COUNT/MIN/MAX-
// identical, SUM-up-to-reassociation rule. ops[0]'s low bit picks a
// weightless dataset.
func FuzzIncrementalFold(f *testing.F) {
	// Byte 0 is the dataset flag; ops follow in (op, arg) pairs. A query's arg
	// is bound index | aggregate mask << 2; op bit 3 asks for four workers.
	// Append, query all five at each bound, append, query again.
	f.Add([]byte{0, 0, 15, 5, 125, 5, 126, 5, 127, 0, 7, 5, 125, 13, 126, 5, 127})
	// A base delete, a delta delete and a compaction, a query after each.
	f.Add([]byte{0, 0, 9, 5, 125, 1, 3, 5, 125, 2, 1, 5, 125, 3, 0, 5, 125, 0, 3, 5, 125})
	// {count}, an all-dead compaction, {min}, an append, {sum,max}, all five.
	f.Add([]byte{0, 0, 4, 5, 5, 4, 0, 5, 33, 0, 2, 5, 73, 5, 125})
	// Weightless: append, query, delta delete, query, compact, base delete, query.
	f.Add([]byte{1, 0, 9, 5, 0, 2, 4, 5, 1, 3, 0, 1, 7, 5, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 || len(ops) > 128 {
			return
		}
		newFoldHarness(t, ops[0]&1 == 0).run(ops[1:])
	})
}

var allFive = []Agg{Count, Sum, Avg, Min, Max}

// TestIncrementalFoldEdges names the transitions of the published state one
// by one, checking the work counters beside the answers: they are how an
// operator (and the planner) tells a warm read from a cold one.
func TestIncrementalFoldEdges(t *testing.T) {
	t.Run("warm reads do no work", func(t *testing.T) {
		h := newFoldHarness(t, true)
		uniq := h.inc[1].NumRanges()
		if st := h.query(1, allFive, 1); st != (ProbeStats{RangesProbed: uniq}) {
			t.Fatalf("first query reported %+v, want a full fill and no delta", st)
		}
		if st := h.query(1, allFive, 4); st != (ProbeStats{}) {
			t.Fatalf("repeat query reported %+v, want no work", st)
		}
		h.append(40)
		h.deleteFrom(&h.deltaIDs, 3)
		if st := h.query(1, allFive, 1); st != (ProbeStats{DeltaProbed: 39}) {
			t.Fatalf("query after 40 appends and a delta delete reported %+v, want 39 live rows inverted from row 0", st)
		}
		h.append(7)
		if st := h.query(1, allFive, 1); st != (ProbeStats{DeltaProbed: 7}) {
			t.Fatalf("query after 7 more appends reported %+v, want only those inverted", st)
		}
		h.deleteFrom(&h.baseIDs, 11)
		if st := h.query(1, allFive, 1); st != (ProbeStats{RangesProbed: uniq}) {
			t.Fatalf("query after a base delete reported %+v, want a refill and no inversion", st)
		}
		h.compact()
		if st := h.query(1, allFive, 1); st != (ProbeStats{RangesProbed: uniq}) {
			t.Fatalf("query after a compaction reported %+v, want a refill", st)
		}
	})

	// A stale reader — its snapshot older than the published state —
	// answers that later state and does no work: epochs order one store's
	// snapshots, whatever lineage or base they are of.
	stale := func(h *foldHarness, old *pointstore.Snapshot) {
		t.Helper()
		published := h.inc[1].state.Load()
		if published.snap != h.store.Snapshot() {
			t.Fatalf("published state at epoch %d, want the current %d", published.snap.Epoch(), h.store.Epoch())
		}
		st, work, err := h.inc[1].stateAt(context.Background(), old, true, 1)
		if err != nil || work != (ProbeStats{}) || st != published {
			t.Fatalf("stale reader: err %v, work %+v, answered the published state: %v; want it, with no work", err, work, st == published)
		}
		if h.inc[1].state.Load() != published {
			t.Fatal("a stale reader replaced the published state")
		}
	}

	t.Run("stale reader after the watermark advanced", func(t *testing.T) {
		h := newFoldHarness(t, true)
		h.append(20)
		h.query(1, allFive, 1)
		old := h.store.Snapshot()
		h.append(30)
		if st := h.query(1, allFive, 1); st != (ProbeStats{DeltaProbed: 30}) {
			t.Fatalf("current reader reported %+v, want the 30 new rows", st)
		}
		stale(h, old)
		// The same across a compaction: the pre-compaction reader answers
		// the state of the new base.
		h.compact()
		h.append(2)
		h.query(1, allFive, 1)
		stale(h, old)
	})

	t.Run("a read behind a published watermark answers at it", func(t *testing.T) {
		h := newFoldHarness(t, true)
		h.append(20)
		h.query(1, allFive, 1)
		old := h.store.Snapshot()
		h.append(30)
		if err := h.inc[1].Refresh(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		stale(h, old)
		if st := h.query(1, allFive, 1); st != (ProbeStats{}) {
			t.Fatalf("a read at the refreshed state reported %+v, want no work", st)
		}
		// A delta delete starts another lineage; a read of the old one still
		// answers the published state.
		h.deleteFrom(&h.deltaIDs, 0)
		h.query(1, allFive, 1)
		stale(h, old)
	})

	t.Run("an advance computes the store's current state and publishes it", func(t *testing.T) {
		h := newFoldHarness(t, true)
		h.query(1, allFive, 1)
		h.append(10)
		old := h.store.Snapshot()
		h.append(5)
		st, work, err := h.inc[1].stateAt(context.Background(), old, true, 1)
		if err != nil || work != (ProbeStats{DeltaProbed: 15}) || st.snap != h.store.Snapshot() {
			t.Fatalf("a read of a snapshot behind the store did %+v (err %v) and answered epoch %d; want all 15 rows and the current epoch %d",
				work, err, st.snap.Epoch(), h.store.Epoch())
		}
		if h.inc[1].state.Load() != st {
			t.Fatal("the read answered a state it did not publish")
		}
		if st := h.query(1, allFive, 1); st != (ProbeStats{}) {
			t.Fatalf("a read of the current snapshot reported %+v, want no work", st)
		}
	})

	t.Run("a canceled read stops waiting for another caller's advance", func(t *testing.T) {
		h := newFoldHarness(t, true)
		j := h.inc[1]
		started, release, finished := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() { // an advance that runs until released, as a slow fill would
			defer close(finished)
			_, _ = j.advancing.Do(context.Background(), struct{}{}, func() (*state, bool) { return nil, false },
				func(context.Context) (*state, error) {
					close(started)
					<-release
					return nil, context.Canceled
				})
		}()
		<-started
		ctx, cancel := context.WithCancel(context.Background())
		read := make(chan error, 1)
		go func() {
			_, _, err := j.stateAt(ctx, h.store.Snapshot(), true, 1)
			read <- err
		}()
		cancel()
		select {
		case err := <-read:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled read returned %v, want context.Canceled", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a canceled read kept waiting for the advance it joined")
		}
		close(release)
		<-finished
		if st := h.query(1, allFive, 1); st != (ProbeStats{RangesProbed: j.NumRanges()}) {
			t.Fatalf("the read after the abandoned wait reported %+v, want its own fill", st)
		}
	})

	t.Run("refresh extends only joiners read since it last worked", func(t *testing.T) {
		h := newFoldHarness(t, true)
		ctx := context.Background()
		refresh := func(bi int) ProbeStats {
			t.Helper()
			before := h.inc[bi].Probed()
			if err := h.inc[bi].Refresh(ctx, 1); err != nil {
				t.Fatal(err)
			}
			after := h.inc[bi].Probed()
			return ProbeStats{RangesProbed: after.RangesProbed - before.RangesProbed, DeltaProbed: after.DeltaProbed - before.DeltaProbed}
		}
		h.query(1, allFive, 1)
		h.append(30)
		if st := refresh(1); st != (ProbeStats{DeltaProbed: 30}) {
			t.Fatalf("Refresh of a read joiner did %+v, want the 30 new rows inverted", st)
		}
		if st := refresh(2); st != (ProbeStats{}) {
			t.Fatalf("Refresh of a joiner never read did %+v, want nothing", st)
		}
		if st := h.query(1, allFive, 1); st != (ProbeStats{}) {
			t.Fatalf("read after Refresh reported %+v, want no work", st)
		}
		// The read marked the joiner again; a read that got to the rows first
		// leaves its mark for the next append.
		h.append(5)
		if st := h.query(1, allFive, 1); st != (ProbeStats{DeltaProbed: 5}) {
			t.Fatalf("read reported %+v, want 5 rows", st)
		}
		if st := refresh(1); st != (ProbeStats{}) {
			t.Fatalf("Refresh after the read did %+v, want nothing", st)
		}
		h.append(4)
		if st := refresh(1); st != (ProbeStats{DeltaProbed: 4}) {
			t.Fatalf("Refresh did %+v, want the 4 new rows", st)
		}
		// Unread since that Refresh: the next append is left to the read.
		h.append(6)
		if st := refresh(1); st != (ProbeStats{}) {
			t.Fatalf("Refresh of a joiner unread since its last one did %+v, want nothing", st)
		}
		if st := h.query(1, allFive, 1); st != (ProbeStats{DeltaProbed: 6}) {
			t.Fatalf("read reported %+v, want the 6 rows Refresh left", st)
		}
		if p := h.inc[1].Probed(); p.DeltaProbed != 30+5+4+6 || p.RangesProbed != h.inc[1].NumRanges() {
			t.Fatalf("joiner counted %+v, want one fill and each row once", p)
		}
	})

	t.Run("a count pass then one weight pass", func(t *testing.T) {
		h := newFoldHarness(t, true)
		uniq := h.inc[2].NumRanges()
		for _, step := range []struct {
			aggs     []Agg
			probed   int
			weighted bool
		}{
			{[]Agg{Count}, uniq, false},
			{[]Agg{Min}, uniq, true},
			{[]Agg{Sum, Max}, 0, true},
			{allFive, 0, true},
			{[]Agg{Count}, 0, true},
		} {
			if st := h.query(2, step.aggs, 1); st != (ProbeStats{RangesProbed: step.probed}) {
				t.Fatalf("%v: reported %+v, want %d ranges probed", step.aggs, st, step.probed)
			}
			if w := h.inc[2].state.Load().weighted(); w != step.weighted {
				t.Fatalf("%v: published weight pass %v, want %v", step.aggs, w, step.weighted)
			}
		}
		// A count-only refill after a delete folds no weight column.
		h.deleteFrom(&h.baseIDs, 5)
		if st := h.query(2, []Agg{Count}, 1); st.RangesProbed != uniq {
			t.Fatalf("count after a delete reported %+v, want a refill", st)
		}
		if st := h.inc[2].state.Load(); st.weighted() || st.base.sums != nil || st.base.mins != nil || st.base.maxs != nil {
			t.Fatal("count-only refill folded a weight column nobody asked for")
		}
	})

	t.Run("two bounds advance independent watermarks", func(t *testing.T) {
		h := newFoldHarness(t, true)
		h.query(1, allFive, 1)
		h.query(2, allFive, 1)
		h.append(10)
		if st := h.query(1, allFive, 1); st.DeltaProbed != 10 {
			t.Fatalf("ε16 reported %+v, want 10 rows", st)
		}
		h.append(5)
		if st := h.query(2, allFive, 1); st.DeltaProbed != 15 {
			t.Fatalf("ε64 reported %+v, want all 15 rows since its last read", st)
		}
		if st := h.query(1, allFive, 1); st.DeltaProbed != 5 {
			t.Fatalf("ε16 reported %+v, want the 5 rows since its last read", st)
		}
	})

	t.Run("weightless dataset", func(t *testing.T) {
		h := newFoldHarness(t, false)
		h.query(0, []Agg{Count}, 1)
		h.append(25)
		h.deleteFrom(&h.baseIDs, 9)
		if st := h.query(0, []Agg{Count}, 4); st.DeltaProbed != 25 || st.RangesProbed == 0 {
			t.Fatalf("reported %+v, want a refill and 25 rows", st)
		}
		h.append(3)
		if st := h.query(0, []Agg{Count}, 1); st != (ProbeStats{DeltaProbed: 3}) {
			t.Fatalf("reported %+v, want 3 rows", st)
		}
		results := NewResults([]Agg{Sum}, h.inc[0].NumRegions())
		if _, err := h.inc[0].AggregateMultiInto(context.Background(), []Agg{Sum}, 1, results); err == nil {
			t.Fatal("SUM over a weightless dataset was answered")
		}
	})

	t.Run("all-dead compaction keeps the base partials", func(t *testing.T) {
		h := newFoldHarness(t, true)
		h.append(12)
		h.query(1, allFive, 1)
		base := h.store.Snapshot().BaseStore()
		h.allDeadCompact()
		snap := h.store.Snapshot()
		if snap.BaseStore() != base || snap.DeltaLen() != 0 {
			t.Fatalf("fixture missed the fast path: same base %v, delta %d", snap.BaseStore() == base, snap.DeltaLen())
		}
		if st := h.query(1, allFive, 1); st != (ProbeStats{}) {
			t.Fatalf("query after an all-dead compaction reported %+v, want no work: the base rows did not change", st)
		}
		// The emptied delta starts a new lineage: nothing of the old
		// accumulators may leak into it.
		h.append(4)
		if st := h.query(1, allFive, 1); st != (ProbeStats{DeltaProbed: 4}) {
			t.Fatalf("query after re-appending reported %+v, want 4 rows from row 0", st)
		}
	})

	t.Run("refresh refills what was asked for", func(t *testing.T) {
		h := newFoldHarness(t, true)
		ctx := context.Background()
		if err := h.inc[1].Refresh(ctx, 1); err != nil || h.inc[1].state.Load() != nil {
			t.Fatalf("Refresh of an untouched joiner: err %v, published %v", err, h.inc[1].state.Load())
		}
		h.query(1, []Agg{Count, Sum}, 1)
		h.append(8)
		h.compact()
		if err := h.inc[1].Refresh(ctx, 1); err != nil {
			t.Fatal(err)
		}
		if st := h.inc[1].state.Load(); !st.answers(h.store.Snapshot(), true) {
			t.Fatalf("Refresh dropped the weight pass: published weighted=%v", st.weighted())
		}
		if st := h.query(1, allFive, 1); st != (ProbeStats{}) {
			t.Fatalf("query after Refresh reported %+v, want no work", st)
		}
		// A count-only joiner's Refresh stays count-only.
		h.query(2, []Agg{Count}, 1)
		h.append(8)
		h.compact()
		if err := h.inc[2].Refresh(ctx, 1); err != nil {
			t.Fatal(err)
		}
		if st := h.inc[2].state.Load(); !st.answers(h.store.Snapshot(), false) || st.weighted() {
			t.Fatalf("Refresh of count-only partials: answers %v, weighted %v", st.answers(h.store.Snapshot(), false), st.weighted())
		}
	})
}

// TestIncrementalFoldConcurrent runs readers against one appender and one
// deleter. Each reader pins a snapshot and asks it of the shared joiner —
// racing the other readers' extensions and refills — and of a private
// sibling with nothing published; the answers must match bit for bit
// whatever interleaving published what. Meaningful under -race.
func TestIncrementalFoldConcurrent(t *testing.T) {
	h := newFoldHarness(t, true)
	const readers, rounds = 4, 60
	ctx := context.Background()
	stop := make(chan struct{})
	var writers, wg sync.WaitGroup
	writers.Add(2)
	go func() { // appender, compacting now and then
		defer writers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			off := 2000 + (i*5)%3900
			if _, err := h.store.Append(h.pool[off:off+5], h.weights[off:off+5]); err != nil {
				t.Error(err)
				return
			}
			if i%40 == 39 {
				h.store.Compact()
			}
			runtime.Gosched()
		}
	}()
	go func() { // deleter: seed rows (base) and early appended IDs (delta or base)
		defer writers.Done()
		for id := uint64(0); ; id++ {
			select {
			case <-stop:
				return
			default:
			}
			h.store.Delete(id%2000, 2000+id)
			runtime.Gosched()
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			bi := 1 + r%2
			inc, own := h.inc[bi], foldTemplates()[bi].withSource(h.store)
			aggs := h.aggSubset(1 + 7*r)
			n := inc.NumRegions()
			got, want := NewResults(aggs, n), NewResults(aggs, n)
			for i := 0; i < rounds; i++ {
				snap := h.store.Snapshot()
				if _, err := inc.aggregateSnapshot(ctx, snap, weightsAsked(aggs), 1+r%2, got); err != nil {
					t.Error(err)
					return
				}
				own.dropPartials()
				if _, err := own.aggregateSnapshot(ctx, snap, weightsAsked(aggs), 1, want); err != nil {
					t.Error(err)
					return
				}
				for k := range aggs {
					for ri := range want[k].Counts {
						if got[k].Counts[ri] != want[k].Counts[ri] ||
							(want[k].Sums != nil && math.Float64bits(got[k].Sums[ri]) != math.Float64bits(want[k].Sums[ri])) ||
							(want[k].Extremes != nil && math.Float64bits(got[k].Extremes[ri]) != math.Float64bits(want[k].Extremes[ri])) {
							t.Errorf("reader %d round %d %v region %d: shared joiner diverged from re-execution", r, i, aggs[k], ri)
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	writers.Wait()
}
