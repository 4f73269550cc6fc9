package pointstore

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// deleteModel is the reference Delete is held to: live weights by point ID,
// every ID ever issued (dropped points' included), and the next ID.
type deleteModel struct {
	live    map[uint64]float64
	issued  []uint64
	dropped []uint64
	nextID  uint64
}

// requireMatchesModel fails unless the store's live set, LiveLen and live
// weight sum equal the model's.
func requireMatchesModel(t *testing.T, m *Mutable, ref *deleteModel, step int) {
	t.Helper()
	s := m.Snapshot()
	var got []uint64
	sum := s.SumSpan(0, s.BaseLen())
	for row, id := range s.baseIDs {
		if _, dead := slices.BinarySearch(s.tombPos, row); !dead {
			got = append(got, id)
		}
	}
	for k := range s.deltaKeys {
		if s.DeltaLive(k) {
			got = append(got, s.idFirst+uint64(k))
			sum += s.DeltaWeight(k)
		}
	}
	slices.Sort(got)
	want := make([]uint64, 0, len(ref.live))
	wantSum := 0.0
	for id, w := range ref.live {
		want = append(want, id)
		wantSum += w
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("step %d: live IDs differ from the model (%d vs %d live)", step, len(got), len(want))
	}
	if s.LiveLen() != len(want) || m.Len() != len(want) {
		t.Fatalf("step %d: LiveLen %d, Len %d; model holds %d", step, s.LiveLen(), m.Len(), len(want))
	}
	// Weights are eighths, so both sums are exact whatever the order.
	if sum != wantSum {
		t.Fatalf("step %d: live weight sum %g, model %g", step, sum, wantSum)
	}
	if m.NextID() != ref.nextID {
		t.Fatalf("step %d: next ID %d, model %d", step, m.NextID(), ref.nextID)
	}
}

// TestDeleteMatchesReferenceModel drives random Append / Delete / Compact /
// reopen streams and holds every Delete's returned count, and the live set
// after every step, to a map-based model. Delete batches mix live base and
// delta IDs with repeats within the batch, IDs deleted in an earlier batch,
// IDs at or beyond the next ID and IDs of points dropped at construction.
// The base is large enough that the ID index takes the radix sort.
//
// It also pins the ID index's life: a base built by construction or
// compaction has none, the first batch naming an ID below the delta's builds
// it and later ones keep it, a batch of delta IDs alone builds none, reopen
// builds it, and the all-dead compaction keeps whatever index there was.
// Every index holds exactly the base's IDs.
func TestDeleteMatchesReferenceModel(t *testing.T) {
	d := testDomain(t)
	c := sfc.Hilbert{}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := radixParallelMin + 500
		pts := randPts(rng, n)
		ws := eighths(rng, n)
		ref := &deleteModel{live: map[uint64]float64{}, nextID: uint64(n)}
		for i := range pts {
			ref.issued = append(ref.issued, uint64(i))
			if i%97 == 5 {
				pts[i] = geom.Pt(-3, 2000) // outside the domain: dropped, never live
				ref.dropped = append(ref.dropped, uint64(i))
				continue
			}
			ref.live[uint64(i)] = ws[i]
		}
		m, err := NewMutable(pts, ws, d, c)
		if err != nil {
			t.Fatal(err)
		}
		requireMatchesModel(t, m, ref, 0)
		requireIndex := func(want bool, step int, when string) {
			t.Helper()
			x := m.baseByID.Load()
			if (x != nil) != want {
				t.Fatalf("seed %d step %d: %s: ID index built %v, want %v", seed, step, when, x != nil, want)
			}
			if x != nil {
				flat := map[uint64]int{}
				for row, id := range m.Snapshot().baseIDs {
					flat[id] = row
				}
				requireIndexMatches(t, x, flat)
			}
		}
		requireIndex(false, 0, "constructed")
		var recent []uint64 // IDs deleted since the last compaction
		appendBatch := func(k int) []uint64 {
			ap, aw := randPts(rng, k), eighths(rng, k)
			ids, err := m.Append(ap, aw)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range ids {
				if id != ref.nextID {
					t.Fatalf("seed %d: append assigned ID %d, model expects %d", seed, id, ref.nextID)
				}
				ref.nextID++
				ref.issued = append(ref.issued, id)
				ref.live[id] = aw[i]
			}
			return ids
		}
		deleteBatch := func(batch []uint64, step int) {
			had := m.baseByID.Load()
			idFirst := m.Snapshot().idFirst
			namesBase := slices.ContainsFunc(batch, func(id uint64) bool { return id < idFirst })
			want := 0
			seen := map[uint64]bool{}
			for _, id := range batch {
				if _, ok := ref.live[id]; ok && !seen[id] {
					want++
				}
				seen[id] = true
			}
			if got := m.Delete(batch...); got != want {
				t.Fatalf("seed %d step %d: Delete returned %d, model %d", seed, step, got, want)
			}
			for id := range seen {
				delete(ref.live, id)
			}
			recent = append(recent, batch...)
			if had != nil && m.baseByID.Load() != had {
				t.Fatalf("seed %d step %d: Delete replaced the ID index it had", seed, step)
			}
			requireIndex(had != nil || namesBase, step, "deleted")
		}
		for step := 1; step <= 200; step++ {
			switch op := rng.Intn(10); {
			case op < 3:
				appendBatch(1 + rng.Intn(300))
			case op < 8:
				var batch []uint64
				for k := 1 + rng.Intn(60); k > 0; k-- {
					var id uint64
					switch r := rng.Intn(10); {
					case r < 5:
						id = ref.issued[rng.Intn(len(ref.issued))]
					case r < 6 && len(ref.issued) > n:
						id = ref.issued[n+rng.Intn(len(ref.issued)-n)] // a delta or compacted appended row
					case r < 7 && len(recent) > 0:
						id = recent[rng.Intn(len(recent))]
					case r < 8 && len(batch) > 0:
						id = batch[rng.Intn(len(batch))]
					case r < 9:
						id = ref.nextID + uint64(rng.Intn(1000))
					default:
						id = ref.dropped[rng.Intn(len(ref.dropped))]
					}
					batch = append(batch, id)
				}
				deleteBatch(batch, step)
			case op < 9:
				before := m.Snapshot().base
				m.Compact()
				recent = recent[:0]
				if m.Snapshot().base != before {
					requireIndex(false, step, "compacted")
				}
				if rng.Intn(2) == 0 {
					// The all-dead no-op path: a delta tail deleted whole
					// over a tombstone-free base republishes the base and
					// keeps the ID index it had — half the time one built
					// by a batch naming only a dropped ID, which tombstones
					// nothing.
					if rng.Intn(2) == 0 {
						deleteBatch([]uint64{ref.dropped[rng.Intn(len(ref.dropped))]}, step)
					}
					idx := m.baseByID.Load()
					deleteBatch(appendBatch(1+rng.Intn(20)), step)
					m.Compact()
					if m.baseByID.Load() != idx {
						t.Fatalf("seed %d step %d: the all-dead compaction did not keep the ID index it had", seed, step)
					}
				}
			default:
				// Reopen: persistence checkpoints a compacted base and
				// rebuilds the store from its columns.
				m.Compact()
				recent = recent[:0]
				s := m.Snapshot()
				m, err = NewMutableFromColumns(s.BaseColumns(), d, c, m.Dropped(), m.NextID(), s.Gen())
				if err != nil {
					t.Fatal(err)
				}
				requireIndex(true, step, "reopened")
			}
			requireMatchesModel(t, m, ref, step)
		}
	}
}

// TestMutableMemoryBytesCountsIDIndex: a store's footprint is its snapshot's
// columns plus, once a Delete or reopen has built it, the ID index's 16-byte
// pairs, through every state change.
func TestMutableMemoryBytesCountsIDIndex(t *testing.T) {
	d := testDomain(t)
	rng := rand.New(rand.NewSource(13))
	m, err := NewMutable(randPts(rng, 3000), eighths(rng, 3000), d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string, built bool) {
		t.Helper()
		x := m.baseByID.Load()
		if (x != nil) != built {
			t.Fatalf("%s: ID index built %v, want %v", when, x != nil, built)
		}
		want := m.Snapshot().MemoryBytes()
		if built {
			want += 16 * len(x.byID)
			if len(x.byID) != m.Snapshot().BaseLen() {
				t.Fatalf("%s: index holds %d pairs for %d base rows", when, len(x.byID), m.Snapshot().BaseLen())
			}
		}
		if got := m.MemoryBytes(); got != want {
			t.Fatalf("%s: MemoryBytes %d, columns plus index %d", when, got, want)
		}
	}
	check("constructed", false)
	if _, err := m.Append(randPts(rng, 400), eighths(rng, 400)); err != nil {
		t.Fatal(err)
	}
	check("appended", false)
	m.Delete(3001, 3002)
	check("deleted from the delta", false)
	m.Delete(1, 2, 3)
	check("deleted from the base", true)
	m.Compact()
	check("compacted", false)
	s := m.Snapshot()
	if m, err = NewMutableFromColumns(s.BaseColumns(), d, sfc.Hilbert{}, 0, m.NextID(), s.Gen()); err != nil {
		t.Fatal(err)
	}
	check("reopened", true)
}

// TestMutableMemoryBytesConcurrentWithDelete: MemoryBytes reads the ID index
// without the mutation lock while Delete builds it and Compact drops it, so
// under the race detector the readers below must not race the writer.
func TestMutableMemoryBytesConcurrentWithDelete(t *testing.T) {
	d := testDomain(t)
	rng := rand.New(rand.NewSource(17))
	m, err := NewMutable(randPts(rng, 2000), eighths(rng, 2000), d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	var (
		wg   sync.WaitGroup
		stop atomic.Bool
	)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if m.MemoryBytes() <= 0 {
					t.Error("MemoryBytes read no columns")
					return
				}
			}
		}()
	}
	for id := uint64(0); id < 200; id++ {
		m.Delete(id)
		if id%20 == 19 {
			m.Compact()
		}
	}
	stop.Store(true)
	wg.Wait()
}
