package pointstore

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// mutRef is the naive reference model: live points by ID.
type mutRef struct {
	pts map[uint64]geom.Point
	ws  map[uint64]float64
}

func newMutRef() *mutRef {
	return &mutRef{pts: map[uint64]geom.Point{}, ws: map[uint64]float64{}}
}

// rangeAgg computes COUNT/SUM/MIN/MAX over live points whose keys fall in
// [lo, hi].
func (r *mutRef) rangeAgg(d sfc.Domain, c sfc.Curve, lo, hi uint64) (cnt int, sum, mn, mx float64) {
	mn, mx = math.Inf(1), math.Inf(-1)
	for id, p := range r.pts {
		pos, ok := d.LeafPos(c, p)
		if !ok {
			continue
		}
		if pos < lo || pos > hi {
			continue
		}
		cnt++
		w := r.ws[id]
		sum += w
		mn = math.Min(mn, w)
		mx = math.Max(mx, w)
	}
	return
}

// checkAgainstRef compares the snapshot's full-key-range and random sub-range
// aggregates against the reference. Weights are eighths (exact float sums),
// so sums compare bitwise.
func checkAgainstRef(t *testing.T, m *Mutable, ref *mutRef, rng *rand.Rand) {
	t.Helper()
	s := m.Snapshot()
	d, c := m.Domain(), m.Curve()
	if s.LiveLen() != len(ref.pts) {
		t.Fatalf("live len %d != reference %d", s.LiveLen(), len(ref.pts))
	}
	ranges := [][2]uint64{{0, math.MaxUint64}}
	for i := 0; i < 8; i++ {
		lo, hi := rng.Uint64(), rng.Uint64()
		if lo > hi {
			lo, hi = hi, lo
		}
		ranges = append(ranges, [2]uint64{lo, hi})
	}
	for _, r := range ranges {
		cnt, sum, mn, mx := ref.rangeAgg(d, c, r[0], r[1])
		i, j := keySpan(s.BaseColumns().Keys, r[0], r[1])
		gotCnt := s.CountSpan(i, j)
		gotSum := s.SumSpan(i, j)
		gotMin, gotMax := s.MinSpan(i, j), s.MaxSpan(i, j)
		for k, dn := 0, s.DeltaLen(); k < dn; k++ {
			if !s.DeltaLive(k) {
				continue
			}
			key := s.DeltaKey(k)
			if key < r[0] || key > r[1] {
				continue
			}
			gotCnt++
			w := s.DeltaWeight(k)
			gotSum += w
			gotMin = math.Min(gotMin, w)
			gotMax = math.Max(gotMax, w)
		}
		if gotCnt != cnt {
			t.Fatalf("range [%d,%d]: count %d != %d", r[0], r[1], gotCnt, cnt)
		}
		if gotSum != sum {
			t.Fatalf("range [%d,%d]: sum %g != %g", r[0], r[1], gotSum, sum)
		}
		if cnt > 0 && (gotMin != mn || gotMax != mx) {
			t.Fatalf("range [%d,%d]: extremes (%g,%g) != (%g,%g)", r[0], r[1], gotMin, gotMax, mn, mx)
		}
	}
}

// eighths returns n random weights that are exact multiples of 1/8, so any
// summation order produces identical bits and sum comparisons can be exact.
func eighths(rng *rand.Rand, n int) []float64 {
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = float64(rng.Intn(257)-128) / 8
	}
	return ws
}

func randPts(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
	}
	return pts
}

func TestMutableAppendDeleteCompactVsReference(t *testing.T) {
	d := testDomain(t)
	rng := rand.New(rand.NewSource(42))
	pts := randPts(rng, 1000)
	ws := eighths(rng, 1000)
	m, err := NewMutable(pts, ws, d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	ref := newMutRef()
	var ids []uint64
	for i := range pts {
		ref.pts[uint64(i)] = pts[i]
		ref.ws[uint64(i)] = ws[i]
		ids = append(ids, uint64(i))
	}
	checkAgainstRef(t, m, ref, rng)

	for round := 0; round < 20; round++ {
		switch rng.Intn(5) {
		case 0, 1: // append a batch
			n := 1 + rng.Intn(200)
			ap, aw := randPts(rng, n), eighths(rng, n)
			got, err := m.Append(ap, aw)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != n {
				t.Fatalf("append returned %d ids for %d points", len(got), n)
			}
			for i, id := range got {
				ref.pts[id] = ap[i]
				ref.ws[id] = aw[i]
				ids = append(ids, id)
			}
		case 2, 3: // delete a batch (some possibly already dead)
			n := 1 + rng.Intn(100)
			var del []uint64
			for i := 0; i < n; i++ {
				del = append(del, ids[rng.Intn(len(ids))])
			}
			wantLive := 0
			seen := map[uint64]bool{}
			for _, id := range del {
				if _, ok := ref.pts[id]; ok && !seen[id] {
					wantLive++
				}
				seen[id] = true
				delete(ref.pts, id)
				delete(ref.ws, id)
			}
			if got := m.Delete(del...); got != wantLive {
				t.Fatalf("round %d: Delete reported %d live, want %d", round, got, wantLive)
			}
		case 4:
			gen := m.Gen()
			pending := m.Pending()
			m.Compact()
			if pending > 0 && m.Gen() != gen+1 {
				t.Fatalf("compaction of %d pending rows left generation at %d", pending, m.Gen())
			}
			if m.Pending() != 0 {
				t.Fatalf("pending %d after compaction", m.Pending())
			}
		}
		checkAgainstRef(t, m, ref, rng)
	}
	// Final compaction must preserve everything bit-for-bit.
	m.Compact()
	checkAgainstRef(t, m, ref, rng)
}

// TestMutableSnapshotIsolation: a snapshot taken before mutations keeps
// answering from the old state; the mutations appear only in later snapshots.
func TestMutableSnapshotIsolation(t *testing.T) {
	d := testDomain(t)
	m, err := NewMutable([]geom.Point{geom.Pt(1, 1), geom.Pt(2, 2)}, []float64{1, 2}, d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	old := m.Snapshot()
	if _, err := m.Append([]geom.Point{geom.Pt(3, 3)}, []float64{4}); err != nil {
		t.Fatal(err)
	}
	m.Delete(0)
	if old.LiveLen() != 2 {
		t.Errorf("pre-mutation snapshot sees %d live points, want 2", old.LiveLen())
	}
	if cur := m.Snapshot(); cur.LiveLen() != 2 || cur.Tombstones() != 1 || cur.DeltaLiveLen() != 1 {
		t.Errorf("post-mutation snapshot wrong: live=%d tombs=%d deltaLive=%d",
			cur.LiveLen(), cur.Tombstones(), cur.DeltaLiveLen())
	}
	preCompact := m.Snapshot()
	m.Compact()
	if preCompact.Tombstones() != 1 || m.Snapshot().Tombstones() != 0 {
		t.Error("compaction mutated an existing snapshot instead of swapping a new one")
	}
	if m.Gen() != 1 {
		t.Errorf("generation %d after one compaction", m.Gen())
	}
	// Materialized survivors: base order then delta order.
	pts, ws := preCompact.Materialize()
	if len(pts) != 2 || len(ws) != 2 {
		t.Fatalf("materialized %d points, want 2", len(pts))
	}
}

// TestMaterializeKeepsNoCopy: every Materialize builds fresh slices, so the
// snapshot pins no uncounted copy of its live rows after an exact read.
func TestMaterializeKeepsNoCopy(t *testing.T) {
	d := testDomain(t)
	m, err := NewMutable([]geom.Point{geom.Pt(1, 1), geom.Pt(2, 2)}, []float64{1, 2}, d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append([]geom.Point{geom.Pt(3, 3)}, []float64{4}); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	p1, w1 := snap.Materialize()
	p2, w2 := snap.Materialize()
	if len(p1) != 3 || len(w1) != 3 || !slices.Equal(p1, p2) || !slices.Equal(w1, w2) {
		t.Fatalf("Materialize answers differ: %v %v vs %v %v", p1, w1, p2, w2)
	}
	if &p1[0] == &p2[0] || &w1[0] == &w2[0] {
		t.Fatal("two Materialize calls share a backing array: the snapshot retains a copy")
	}
}

func TestMutableAppendValidation(t *testing.T) {
	d := testDomain(t)
	weighted, err := NewMutable([]geom.Point{geom.Pt(1, 1)}, []float64{1}, d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := weighted.Append([]geom.Point{geom.Pt(2, 2)}, nil); err == nil {
		t.Error("weighted dataset accepted an unweighted append")
	}
	if _, err := weighted.Append([]geom.Point{geom.Pt(2, 2)}, []float64{1, 2}); err == nil {
		t.Error("mismatched weight column accepted")
	}
	if _, err := weighted.Append([]geom.Point{geom.Pt(2, 2)}, []float64{math.NaN()}); err == nil {
		t.Error("NaN weight accepted")
	}
	if _, err := weighted.Append([]geom.Point{geom.Pt(-5, 2)}, []float64{1}); err == nil {
		t.Error("out-of-domain append accepted")
	}
	if weighted.Len() != 1 {
		t.Errorf("failed appends mutated the dataset: len %d", weighted.Len())
	}

	plain, err := NewMutable([]geom.Point{geom.Pt(1, 1)}, nil, d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Append([]geom.Point{geom.Pt(2, 2)}, []float64{1}); err == nil {
		t.Error("weightless dataset accepted a weighted append")
	}
	if _, err := plain.Append([]geom.Point{geom.Pt(2, 2)}, nil); err != nil {
		t.Errorf("plain append failed: %v", err)
	}
}

// TestMutableDroppedIDsNeverLive: out-of-domain registration points consume
// IDs but are not deletable and never counted.
func TestMutableDroppedIDsNeverLive(t *testing.T) {
	d := testDomain(t)
	m, err := NewMutable([]geom.Point{geom.Pt(1, 1), geom.Pt(-10, 0), geom.Pt(2, 2)}, nil, d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 || m.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 2/1", m.Len(), m.Dropped())
	}
	if n := m.Delete(1); n != 0 {
		t.Errorf("deleting a dropped point's ID reported %d live", n)
	}
	// Appends continue the ID sequence after the dropped slot.
	ids, err := m.Append([]geom.Point{geom.Pt(3, 3)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ids[0] != 3 {
		t.Errorf("append ID %d, want 3", ids[0])
	}
	if n := m.Delete(0, 2, 3); n != 3 {
		t.Errorf("deleted %d, want 3", n)
	}
	if m.Len() != 0 {
		t.Errorf("len %d after deleting everything", m.Len())
	}
	m.Compact()
	if m.Len() != 0 || m.Snapshot().BaseLen() != 0 {
		t.Error("compacting an emptied dataset left rows behind")
	}
	// An emptied dataset accepts new appends.
	if _, err := m.Append([]geom.Point{geom.Pt(5, 5)}, nil); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 1 {
		t.Errorf("len %d after re-populating", m.Len())
	}
}

// TestMutableTombstoneBlockEdges pins the tombstone-aware extreme folds on
// spans aligned to block boundaries, with tombstones at block edges and
// interiors.
func TestMutableTombstoneBlockEdges(t *testing.T) {
	d := testDomain(t)
	const n = 3*BlockSize + 17
	rng := rand.New(rand.NewSource(5))
	pts := randPts(rng, n)
	ws := eighths(rng, n)
	m, err := NewMutable(pts, ws, d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	// Tombstone the rows at the edges and middles of blocks: rows 0,
	// BlockSize-1, BlockSize, 2*BlockSize+7, and the very last row — by
	// looking their IDs up in the sorted snapshot.
	s := m.Snapshot()
	rows := []int{0, BlockSize - 1, BlockSize, 2*BlockSize + 7, n - 1}
	for _, row := range rows {
		m.Delete(s.baseIDs[row])
	}
	s = m.Snapshot()
	for _, sp := range [][2]int{{0, n}, {0, BlockSize}, {BlockSize, 2 * BlockSize}, {7, 2*BlockSize + 9}, {n - 1, n}} {
		i, j := sp[0], sp[1]
		cnt := 0
		sum := 0.0
		mn, mx := math.Inf(1), math.Inf(-1)
		tomb := map[int]bool{}
		for _, r := range rows {
			tomb[r] = true
		}
		for k := i; k < j; k++ {
			if tomb[k] {
				continue
			}
			cnt++
			sum += s.base.weights[k]
			mn = math.Min(mn, s.base.weights[k])
			mx = math.Max(mx, s.base.weights[k])
		}
		if got := s.CountSpan(i, j); got != cnt {
			t.Errorf("span [%d,%d): count %d != %d", i, j, got, cnt)
		}
		if got := s.SumSpan(i, j); got != sum {
			t.Errorf("span [%d,%d): sum %g != %g", i, j, got, sum)
		}
		if got := s.MinSpan(i, j); got != mn {
			t.Errorf("span [%d,%d): min %g != %g", i, j, got, mn)
		}
		if got := s.MaxSpan(i, j); got != mx {
			t.Errorf("span [%d,%d): max %g != %g", i, j, got, mx)
		}
	}
}

// TestMutableEpochMonotone pins the epoch contract every result cache keys
// on: each publication — Append, Delete, Compact, including the cheap
// republish path — bumps the epoch exactly once, and no-op mutations leave
// it alone.
func TestMutableEpochMonotone(t *testing.T) {
	d := testDomain(t)
	rng := rand.New(rand.NewSource(7))
	pts := randPts(rng, 100)
	m, err := NewMutable(pts, nil, d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Epoch(); got != 0 {
		t.Fatalf("fresh store epoch = %d, want 0", got)
	}
	ids, err := m.Append(randPts(rng, 10), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Epoch(); got != 1 {
		t.Fatalf("after Append epoch = %d, want 1", got)
	}
	if n := m.Delete(ids[0]); n != 1 {
		t.Fatalf("Delete removed %d, want 1", n)
	}
	if got := m.Epoch(); got != 2 {
		t.Fatalf("after Delete epoch = %d, want 2", got)
	}
	// Deleting an unknown ID publishes nothing.
	if n := m.Delete(1 << 60); n != 0 {
		t.Fatalf("Delete of unknown ID removed %d", n)
	}
	if got := m.Epoch(); got != 2 {
		t.Fatalf("after no-op Delete epoch = %d, want 2", got)
	}
	before := m.Snapshot()
	m.Compact()
	after := m.Snapshot()
	if after.Epoch() != 3 || after.Gen() != before.Gen()+1 {
		t.Fatalf("after Compact epoch = %d gen = %d, want epoch 3 gen %d",
			after.Epoch(), after.Gen(), before.Gen()+1)
	}
	if after.BaseStore() == before.BaseStore() {
		t.Fatal("real compaction should build a fresh base store")
	}
	// Compacting an already-compact store publishes nothing.
	m.Compact()
	if got := m.Epoch(); got != 3 {
		t.Fatalf("after no-op Compact epoch = %d, want 3", got)
	}
	// The republish path (all delta rows dead, no tombstones) swaps the
	// snapshot but keeps the identical base store: epoch moves, identity
	// does not.
	ids, err = m.Append(randPts(rng, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Delete(ids...)
	pre := m.Snapshot()
	m.Compact()
	post := m.Snapshot()
	if post.Epoch() != pre.Epoch()+1 {
		t.Fatalf("republish epoch = %d, want %d", post.Epoch(), pre.Epoch()+1)
	}
	if post.BaseStore() != pre.BaseStore() {
		t.Fatal("republish compaction should keep the base store identity")
	}
}

// TestNewMutableSortedMatchesNewMutable: SortedKeys orders the in-domain rows
// exactly as NewMutable's base, and a store built from those rows as they
// stand is bit-identical — columns, IDs, next ID, no ID index — to NewMutable
// given the same rows, at sizes on both sides of the radix threshold and
// with duplicate keys and out-of-domain points in the input.
func TestNewMutableSortedMatchesNewMutable(t *testing.T) {
	d := testDomain(t)
	for _, n := range []int{0, 1, 300, 3 * radixParallelMin} {
		for _, weighted := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(n) + 7))
			pts := randPts(rng, n)
			for i := 0; i+3 < n; i += 3 {
				pts[i+1] = pts[i]            // duplicate key: ties must keep input order
				pts[i+2] = geom.Pt(-5, 2000) // outside the domain
			}
			keys, rows := SortedKeys(pts, d, sfc.Hilbert{})
			if n >= 4 && len(keys) >= n {
				t.Fatalf("n=%d: SortedKeys kept all %d rows, out-of-domain ones included", n, len(keys))
			}
			runPts := make([]geom.Point, len(rows))
			var runWs []float64
			if weighted {
				runWs = eighths(rng, len(rows))
			}
			for i, r := range rows {
				runPts[i] = pts[r]
				if i > 0 && (keys[i] < keys[i-1] || (keys[i] == keys[i-1] && rows[i] < rows[i-1])) {
					t.Fatalf("n=%d: row %d out of (key, input position) order", n, i)
				}
			}
			want, err := NewMutable(runPts, runWs, d, sfc.Hilbert{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewMutableSorted(keys, runPts, runWs, d, sfc.Hilbert{})
			if err != nil {
				t.Fatal(err)
			}
			requireSnapshotBitIdentical(t, got.Snapshot(), want.Snapshot())
			if got.baseByID.Load() != nil || want.baseByID.Load() != nil {
				t.Fatalf("n=%d: a constructed base has an ID index before any Delete", n)
			}
			if got.nextID != want.nextID || got.Dropped() != 0 || got.HasWeights() != weighted {
				t.Fatalf("n=%d: nextID %d (want %d), dropped %d, weighted %v", n, got.nextID, want.nextID, got.Dropped(), got.HasWeights())
			}
		}
	}
	if _, err := NewMutableSorted([]uint64{2, 1}, randPts(rand.New(rand.NewSource(1)), 2), nil, d, sfc.Hilbert{}); err == nil {
		t.Error("descending keys accepted")
	}
	if _, err := NewMutableSorted([]uint64{1}, nil, nil, d, sfc.Hilbert{}); err == nil {
		t.Error("key/point length mismatch accepted")
	}
}
