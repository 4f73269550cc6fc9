package pointstore

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// compactSeqRef replicates the pre-parallel compaction path verbatim: filter
// base survivors and live delta rows into flat columns, comparison-sort an
// order vector by (key, ID), gather serially, and fill a flat byID map. It is
// the oracle the parity test and BenchmarkCompact's sequential leg measure
// the parallel path against.
func compactSeqRef(s *Snapshot, hasW bool) (*Snapshot, map[uint64]int) {
	n := s.LiveLen()
	keys := make([]uint64, 0, n)
	ids := make([]uint64, 0, n)
	pts := make([]geom.Point, 0, n)
	var ws []float64
	if hasW {
		ws = make([]float64, 0, n)
	}
	ti := 0
	for row := range s.baseIDs {
		if ti < len(s.tombPos) && s.tombPos[ti] == row {
			ti++
			continue
		}
		keys = append(keys, s.base.keys[row])
		ids = append(ids, s.baseIDs[row])
		pts = append(pts, s.basePts[row])
		if hasW {
			ws = append(ws, s.base.weights[row])
		}
	}
	di := 0
	for k := range s.deltaKeys {
		if di < len(s.deltaDead) && s.deltaDead[di] == k {
			di++
			continue
		}
		keys = append(keys, s.deltaKeys[k])
		ids = append(ids, s.idFirst+uint64(k))
		pts = append(pts, s.deltaPts[k])
		if hasW {
			ws = append(ws, s.deltaWs[k])
		}
	}
	ord := make([]int, len(keys))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		if keys[ord[a]] != keys[ord[b]] {
			return keys[ord[a]] < keys[ord[b]]
		}
		return ids[ord[a]] < ids[ord[b]]
	})
	sk := make([]uint64, len(keys))
	si := make([]uint64, len(keys))
	sp := make([]geom.Point, len(keys))
	var sw []float64
	if hasW {
		sw = make([]float64, len(keys))
	}
	byID := make(map[uint64]int, len(keys))
	for i, j := range ord {
		sk[i], si[i], sp[i] = keys[j], ids[j], pts[j]
		if hasW {
			sw[i] = ws[j]
		}
		byID[si[i]] = i
	}
	st, err := newStoreSorted(sk, sw)
	if err != nil {
		panic(err) // the snapshot's weights are finite
	}
	return &Snapshot{
		base:    st,
		baseIDs: si,
		basePts: sp,
		idFirst: s.idFirst + uint64(len(s.deltaKeys)),
		gen:     s.gen + 1,
	}, byID
}

// requireSnapshotBitIdentical fails unless the two snapshots' base stores and
// co-sorted columns are bit-for-bit equal: keys, IDs, weights, points, and
// sparse block sum/min/max — and agree on the generation and the next delta
// row's ID.
func requireSnapshotBitIdentical(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if !slices.Equal(got.base.keys, want.base.keys) {
		t.Fatal("keys differ")
	}
	if !slices.Equal(got.baseIDs, want.baseIDs) {
		t.Fatal("IDs differ")
	}
	if !slices.Equal(got.base.weights, want.base.weights) {
		t.Fatal("weights differ")
	}
	if !slices.Equal(got.basePts, want.basePts) {
		t.Fatal("points differ")
	}
	if !slices.Equal(got.base.blockSum, want.base.blockSum) {
		t.Fatal("block sums differ")
	}
	if !slices.Equal(got.base.blockMin, want.base.blockMin) {
		t.Fatal("block minima differ")
	}
	if !slices.Equal(got.base.blockMax, want.base.blockMax) {
		t.Fatal("block maxima differ")
	}
	if got.gen != want.gen {
		t.Fatalf("generation %d != %d", got.gen, want.gen)
	}
	if got.idFirst != want.idFirst {
		t.Fatalf("first delta ID %d != %d", got.idFirst, want.idFirst)
	}
}

// requireIndexMatches fails unless the ID index holds exactly the flat
// reference map.
func requireIndexMatches(t *testing.T, got *idIndex, want map[uint64]int) {
	t.Helper()
	if len(got.byID) != len(want) {
		t.Fatalf("index holds %d IDs, want %d", len(got.byID), len(want))
	}
	for id, row := range want {
		g, ok := got.get(id)
		if !ok || g != row {
			t.Fatalf("index[%d] = %d,%v; want %d", id, g, ok, row)
		}
	}
}

// requireDeleteBuildsIndex fails unless m's compacted base has no ID index
// and a Delete naming one of its IDs builds one holding exactly the flat
// reference map. The Delete removes ID 0 if it is live; the index keeps
// tombstoned rows, so the map still describes it.
func requireDeleteBuildsIndex(t *testing.T, m *Mutable, want map[uint64]int) {
	t.Helper()
	if m.baseByID.Load() != nil {
		t.Fatal("the compacted base has an ID index before any Delete")
	}
	m.Delete(0)
	requireIndexMatches(t, m.baseByID.Load(), want)
}

// dirtySnapshot builds a Mutable with nBase construction points, nDelta
// appended points, and (when del is true) a sprinkle of base and delta
// deletes, returning its snapshot — the input every compaction test feeds.
func dirtySnapshot(t testing.TB, rng *rand.Rand, d sfc.Domain, nBase, nDelta int, weighted, del bool) *Mutable {
	t.Helper()
	var ws []float64
	if weighted {
		ws = eighths(rng, nBase)
	}
	m, err := NewMutable(randPts(rng, nBase), ws, d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	if nDelta > 0 {
		var dws []float64
		if weighted {
			dws = eighths(rng, nDelta)
		}
		if _, err := m.Append(randPts(rng, nDelta), dws); err != nil {
			t.Fatal(err)
		}
	}
	if del {
		ids := make([]uint64, 0, (nBase+nDelta)/10)
		for id := 0; id < nBase+nDelta; id += 10 {
			ids = append(ids, uint64(rng.Intn(nBase+nDelta)))
		}
		m.Delete(ids...)
	}
	return m
}

// TestCompactParity pins the parallel compaction bit-identical to the
// sequential reference across worker counts, weighted and weightless stores,
// and every dirty-state shape: delta only, tombstones only, both, and
// duplicate curve keys.
func TestCompactParity(t *testing.T) {
	d := testDomain(t)
	cases := []struct {
		name           string
		nBase, nDelta  int
		weighted, dels bool
	}{
		{"delta-only", 4000, 1500, true, false},
		{"tombstones-and-delta", 4000, 1500, true, true},
		{"weightless", 3000, 1200, false, true},
		{"tiny", 12, 5, true, true},
		{"delta-dominant", 200, 9000, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			m := dirtySnapshot(t, rng, d, tc.nBase, tc.nDelta, tc.weighted, tc.dels)
			s := m.Snapshot()
			want, wantByID := compactSeqRef(s, tc.weighted)
			for _, workers := range []int{1, 2, 3, 8, 0} {
				requireSnapshotBitIdentical(t, compactSnapshot(s, tc.weighted, workers), want)
			}
			// The Mutable's own Compact must install exactly the reference
			// state too, and the index the next Delete builds must find
			// every row.
			m.Compact()
			requireSnapshotBitIdentical(t, m.Snapshot(), want)
			requireDeleteBuildsIndex(t, m, wantByID)
		})
	}
}

// TestCompactParityDuplicateKeys forces heavy key collisions (a handful of
// distinct grid cells) so the stable tie-break on ID — which the radix sort
// must preserve without ever comparing IDs — carries the ordering.
func TestCompactParityDuplicateKeys(t *testing.T) {
	d := testDomain(t)
	rng := rand.New(rand.NewSource(9))
	n := 20000
	pts := make([]geom.Point, n)
	for i := range pts {
		// 16 distinct positions: thousands of rows per curve key.
		pts[i] = geom.Pt(float64(rng.Intn(4))*256+1, float64(rng.Intn(4))*256+1)
	}
	m, err := NewMutable(pts[:n/2], eighths(rng, n/2), d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Append(pts[n/2:], eighths(rng, n/2)); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	want, wantByID := compactSeqRef(s, true)
	for _, workers := range []int{1, 4, 0} {
		requireSnapshotBitIdentical(t, compactSnapshot(s, true, workers), want)
	}
	m.Compact()
	requireDeleteBuildsIndex(t, m, wantByID)
}

// TestSortColumnsByKeyMatchesComparison drives the radix path directly over
// adversarial key distributions — uniform, single-byte, all-equal, and
// high-byte-constant — at sizes above the parallel threshold.
func TestSortColumnsByKeyMatchesComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := radixParallelMin * 3
	shapes := map[string]func() uint64{
		"uniform":   rng.Uint64,
		"one-byte":  func() uint64 { return uint64(rng.Intn(256)) },
		"all-equal": func() uint64 { return 42 },
		"mid-bytes": func() uint64 { return uint64(rng.Intn(1<<20)) << 16 },
	}
	for name, gen := range shapes {
		t.Run(name, func(t *testing.T) {
			keys := make([]uint64, n)
			ws := make([]float64, n)
			ids := make([]uint64, n)
			pts := make([]geom.Point, n)
			for i := range keys {
				keys[i] = gen()
				ws[i] = float64(i%97) / 8
				ids[i] = uint64(i)
				pts[i] = geom.Pt(float64(i), float64(i))
			}
			wk, ww, wi, wp := sortColumnsByKey(keys, ws, ids, pts, 1)
			gk, gw, gi, gp := sortColumnsByKey(keys, ws, ids, pts, 8)
			if !slices.Equal(gk, wk) || !slices.Equal(gi, wi) || !slices.Equal(gw, ww) || !slices.Equal(gp, wp) {
				t.Fatal("parallel radix sort diverged from sequential comparison sort")
			}
			if !sort.SliceIsSorted(gk, func(a, b int) bool { return gk[a] < gk[b] }) {
				t.Fatal("keys not sorted")
			}
			for i := 1; i < n; i++ {
				if gk[i] == gk[i-1] && gi[i] < gi[i-1] {
					t.Fatalf("IDs out of order within equal keys at row %d", i)
				}
			}
		})
	}
}

// TestSortPairsOneWorkerMatchesComparison: from radixParallelMin rows up,
// sortPairs radix-sorts even at one worker, so that sort's output must equal
// the comparison sort's on shuffled, sorted and duplicate-key input.
func TestSortPairsOneWorkerMatchesComparison(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := radixParallelMin * 4
	perm := rng.Perm(n)
	shapes := map[string]func(i int) uint64{
		"shuffled":   func(i int) uint64 { return uint64(perm[i]) },
		"sorted":     func(i int) uint64 { return uint64(i) << 3 },
		"duplicates": func(int) uint64 { return uint64(rng.Intn(64)) << 20 },
	}
	for name, key := range shapes {
		t.Run(name, func(t *testing.T) {
			want := make([]keyRef, n)
			for i := range want {
				want[i] = keyRef{key(i), int32(i)}
			}
			radix := slices.Clone(want)
			sortPairsCmp(want)
			radixSortPairs(radix, 1)
			if !slices.Equal(radix, want) {
				t.Fatal("one-worker radix sort diverged from the comparison sort")
			}
		})
	}
}

// TestCompactNoOpSkipsRebuild pins the generation-bump fast path: when every
// pending delta row is dead and no base row is tombstoned, Compact must
// republish the existing base columns (pointer-identical — no resort) under a
// new generation, keep the ID index a Delete built, and that index must keep
// serving deletes.
func TestCompactNoOpSkipsRebuild(t *testing.T) {
	d := testDomain(t)
	rng := rand.New(rand.NewSource(5))
	m, err := NewMutable(randPts(rng, 500), eighths(rng, 500), d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	// Deleting a base ID that is no longer live builds the ID index without
	// tombstoning a row.
	m.Delete(9)
	m.Compact()
	if got := m.Delete(9); got != 0 {
		t.Fatalf("deleting a compacted-away ID removed %d rows", got)
	}
	idxBefore := m.baseByID.Load()
	if idxBefore == nil {
		t.Fatal("a batch naming a base ID built no ID index")
	}
	ids, err := m.Append(randPts(rng, 40), eighths(rng, 40))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Delete(ids...); got != len(ids) {
		t.Fatalf("deleted %d delta rows, want %d", got, len(ids))
	}
	before := m.Snapshot()
	m.Compact()
	after := m.Snapshot()
	if after.gen != before.gen+1 {
		t.Fatalf("generation %d, want %d", after.gen, before.gen+1)
	}
	if after.base != before.base {
		t.Fatal("no-op compaction rebuilt the base store; expected the columns to be republished as-is")
	}
	if &after.baseIDs[0] != &before.baseIDs[0] || &after.basePts[0] != &before.basePts[0] {
		t.Fatal("no-op compaction copied the ID or point columns")
	}
	if m.baseByID.Load() != idxBefore {
		t.Fatal("no-op compaction dropped or rebuilt the ID index")
	}
	if after.DeltaLen() != 0 || after.Tombstones() != 0 {
		t.Fatalf("no-op compaction left pending state: %d delta, %d tombstones", after.DeltaLen(), after.Tombstones())
	}
	// The preserved index must still resolve base IDs.
	if got := m.Delete(7); got != 1 {
		t.Fatalf("delete through preserved index removed %d rows, want 1", got)
	}
	// The Delete above left one tombstone, so the next Compact really
	// compacts and bumps the generation…
	g := m.Snapshot().Gen()
	m.Compact()
	if m.Snapshot().Gen() != g+1 {
		t.Fatalf("generation %d, want %d", m.Snapshot().Gen(), g+1)
	}
	// …and a fully compact store (no delta, no tombstones) keeps the original
	// early exit: no new snapshot at all.
	s := m.Snapshot()
	m.Compact()
	if m.Snapshot() != s {
		t.Fatal("compacting an already-compact store published a new snapshot")
	}
}

// BenchmarkCompact is the acceptance head-to-head: one compaction of a 200k
// base with a 50k un-sorted delta tail, sequential reference vs the parallel
// radix path. The acceptance bar is ≥ 2× on ≥ 4 cores.
func BenchmarkCompact(b *testing.B) {
	d, err := sfc.NewDomain(geom.Pt(0, 0), 1024)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	m := dirtySnapshot(b, rng, d, 200_000, 50_000, true, true)
	s := m.Snapshot()
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			snap, byID := compactSeqRef(s, true)
			if snap.BaseLen() == 0 || len(byID) == 0 {
				b.Fatal("empty compaction result")
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if compactSnapshot(s, true, 0).BaseLen() == 0 {
				b.Fatal("empty compaction result")
			}
		}
	})
}
