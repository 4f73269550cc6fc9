// Mutable extends the resident point store with a write path: an append-only
// delta buffer (unsorted tail with its own weights) and a tombstone set are
// served alongside the SFC-sorted base column, and a compaction merges both
// into a freshly sorted base that is swapped in atomically via a generation
// pointer.
//
// The concurrency model is snapshot isolation without read locks: every
// mutation publishes a new immutable *Snapshot through an atomic pointer, and
// every query loads the pointer once and works on data that can never change
// underneath it — no torn reads, no locks on the read path. Mutations and
// compaction serialize on one mutex; delta columns grow with the shared-array
// append idiom (a reader's snapshot only spans indexes written before that
// snapshot was published, so writers beyond its length never race it), while
// the small tombstone structures are copied on write.
package pointstore

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// Mutable is a resident point dataset that accepts appends and deletes after
// construction. All read methods go through Snapshot and are safe for any
// number of concurrent readers; Append, Delete and Compact are safe to call
// concurrently with reads and with each other.
type Mutable struct {
	domain  sfc.Domain
	curve   sfc.Curve
	hasW    bool
	dropped int // set at construction, immutable afterwards

	mu   sync.Mutex // serializes mutations and compaction
	snap atomic.Pointer[Snapshot]
	// baseByID is the base's ID index: nil until Delete (or reopen) builds
	// it, dropped by compaction; atomic so MemoryBytes needs no lock.
	baseByID atomic.Pointer[idIndex]
	nextID   uint64
}

// Snapshot is one immutable, internally consistent view of a Mutable: the
// sorted base columns, the tombstoned base rows, and the delta tail as of one
// publication. A query that loads a snapshot sees exactly the points live at
// that instant regardless of concurrent mutations or compactions.
type Snapshot struct {
	base    *Store
	baseIDs []uint64     // point IDs co-sorted with base keys
	basePts []geom.Point // original coordinates co-sorted with base keys

	tombPos []int // sorted base rows deleted since the last compaction

	deltaKeys []uint64
	deltaWs   []float64 // nil when weightless
	deltaPts  []geom.Point
	deltaDead []int // sorted delta rows deleted before compaction collected them
	// idFirst is delta row 0's point ID. Appends take consecutive IDs, so
	// delta row k carries idFirst+k, and every base row's ID is below it.
	idFirst uint64

	gen   uint64 // bumped by every compaction
	epoch uint64 // bumped by every publication (Append, Delete, Compact)
}

// NewMutable linearizes and sorts the points and derives the range-aggregate
// columns, assigning each point the ID equal to its input position (appends
// continue the sequence). Ties on the curve key sort by ID, so rebuilds of
// the same live set are deterministic.
//
// Points outside the domain are excluded and counted in Dropped; their IDs
// are never live. Their clamped border key would let far-away points match
// border regions, and since every region cover lies inside the domain they
// can never truly match — excluding them is exactly what the streaming joins
// do when they skip out-of-domain points.
func NewMutable(pts []geom.Point, weights []float64, d sfc.Domain, c sfc.Curve) (*Mutable, error) {
	if err := validateWeights(weights, len(pts)); err != nil {
		return nil, err
	}
	keys, rows := SortedKeys(pts, d, c)
	m := &Mutable{domain: d, curve: c, hasW: weights != nil, dropped: len(pts) - len(keys), nextID: uint64(len(pts))}
	ids := make([]uint64, len(rows))
	kept := make([]geom.Point, len(rows))
	var ws []float64
	if weights != nil {
		ws = make([]float64, len(rows))
	}
	for i, r := range rows {
		ids[i], kept[i] = uint64(r), pts[r]
		if ws != nil {
			ws[i] = weights[r]
		}
	}
	if err := m.installBase(keys, ws, ids, kept); err != nil {
		return nil, err
	}
	return m, nil
}

// NewMutableSorted is NewMutable for in-domain rows the caller already
// linearized and ordered (SortedKeys): keys must ascend and align with pts
// and weights. Row i gets ID i, so it builds the store NewMutable would from
// the same points in this order. The store takes ownership of the slices.
func NewMutableSorted(keys []uint64, pts []geom.Point, weights []float64, d sfc.Domain, c sfc.Curve) (*Mutable, error) {
	if len(keys) != len(pts) {
		return nil, fmt.Errorf("pointstore: %d keys for %d points", len(keys), len(pts))
	}
	if err := validateWeights(weights, len(pts)); err != nil {
		return nil, err
	}
	if !slices.IsSorted(keys) {
		return nil, fmt.Errorf("pointstore: presorted keys are not ascending")
	}
	m := &Mutable{domain: d, curve: c, hasW: weights != nil, nextID: uint64(len(pts))}
	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = uint64(i)
	}
	if err := m.installBase(keys, weights, ids, pts); err != nil {
		return nil, err
	}
	return m, nil
}

// validateWeights rejects a weight column that is not nil and not n long, or
// that holds a NaN or ±Inf weight, naming its row. A non-finite weight would
// make every SUM, AVG, MIN and MAX that reads it — through its row or through
// its block's aggregates — an answer no wire format here can carry, so it is
// refused at the door: on construction, on Append, and on reopening a
// snapshot, whose weights are input from outside the program.
func validateWeights(weights []float64, n int) error {
	if weights != nil && len(weights) != n {
		return fmt.Errorf("pointstore: %d weights for %d points", len(weights), n)
	}
	for i, w := range weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("pointstore: weight %d is %v; aggregation requires finite weights", i, w)
		}
	}
	return nil
}

// installBase publishes (key, ID)-sorted columns as the construction-time
// snapshot: generation 0, empty delta, no tombstones, no ID index.
func (m *Mutable) installBase(sk []uint64, sw []float64, si []uint64, sp []geom.Point) error {
	base, err := newStoreSorted(sk, sw)
	if err != nil {
		return err
	}
	m.snap.Store(&Snapshot{base: base, baseIDs: si, basePts: sp, idFirst: m.nextID})
	return nil
}

// Snapshot returns the current immutable view. The result never changes;
// callers needing a consistent multi-operation read perform it against one
// snapshot.
func (m *Mutable) Snapshot() *Snapshot { return m.snap.Load() }

// Domain returns the domain the keys are linearized over.
func (m *Mutable) Domain() sfc.Domain { return m.domain }

// Curve returns the linearization curve.
func (m *Mutable) Curve() sfc.Curve { return m.curve }

// HasWeights reports whether the dataset carries an attribute column; it is
// fixed at construction.
func (m *Mutable) HasWeights() bool { return m.hasW }

// Dropped returns how many construction-time points fell outside the domain.
// Appends reject out-of-domain points instead of dropping them, so the count
// never grows.
func (m *Mutable) Dropped() int { return m.dropped }

// Len returns the number of live points (base minus tombstones plus live
// delta).
func (m *Mutable) Len() int { return m.Snapshot().LiveLen() }

// Epoch returns the current mutation epoch — one atomic load. See
// Snapshot.Epoch for the monotonicity contract.
//
//distbound:noalloc
func (m *Mutable) Epoch() uint64 { return m.Snapshot().epoch }

// Pending returns how much un-compacted state the store carries: delta rows
// (dead ones included — queries still scan them) plus base tombstones. It is
// the quantity an auto-compaction threshold watches.
func (m *Mutable) Pending() int {
	s := m.Snapshot()
	return len(s.deltaKeys) + len(s.tombPos)
}

// MemoryBytes returns the resident footprint: the snapshot's columns plus,
// once a Delete has built it, the ID index — one 16-byte pair per base row,
// tombstoned rows included. Both are read without the mutation lock.
func (m *Mutable) MemoryBytes() int {
	n := m.Snapshot().MemoryBytes()
	if x := m.baseByID.Load(); x != nil {
		n += 16 * len(x.byID)
	}
	return n
}

// Append adds points (with weights iff the dataset has a weight column),
// assigning and returning their IDs. The append is atomic: any invalid input
// — mismatched or non-finite weights, a point outside the domain — rejects
// the whole batch. Appended points are queryable the moment Append returns.
func (m *Mutable) Append(pts []geom.Point, weights []float64) ([]uint64, error) {
	if m.hasW && weights == nil && len(pts) > 0 {
		return nil, fmt.Errorf("pointstore: dataset has a weight column; Append requires weights")
	}
	if !m.hasW && weights != nil {
		return nil, fmt.Errorf("pointstore: dataset has no weight column; Append must not supply weights")
	}
	if err := validateWeights(weights, len(pts)); err != nil {
		return nil, err
	}
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		pos, ok := m.domain.LeafPos(m.curve, p)
		if !ok {
			return nil, fmt.Errorf("pointstore: appended point %v lies outside the domain (origin %v, size %g)",
				p, m.domain.Origin, m.domain.Size)
		}
		keys[i] = pos
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.snap.Load()
	ids := make([]uint64, len(pts))
	// Shared-array append: rows beyond an old snapshot's length are invisible
	// to its readers, so growing in place (when capacity allows) never races
	// a read. Mutations are serialized by mu.
	nk, np := s.deltaKeys, s.deltaPts
	nw := s.deltaWs
	for i := range pts {
		ids[i] = m.nextID
		m.nextID++
		nk = append(nk, keys[i])
		np = append(np, pts[i])
		if m.hasW {
			nw = append(nw, weights[i])
		}
	}
	m.snap.Store(&Snapshot{
		base: s.base, baseIDs: s.baseIDs, basePts: s.basePts,
		tombPos:   s.tombPos,
		deltaKeys: nk, deltaWs: nw, deltaPts: np,
		deltaDead: s.deltaDead,
		idFirst:   s.idFirst,
		gen:       s.gen,
		epoch:     s.epoch + 1,
	})
	return ids, nil
}

// Delete removes the points with the given IDs, returning how many were live
// (already-deleted or unknown IDs, and repeats within the batch, are skipped).
// Base points become tombstones; delta points are marked dead in place.
// Deletions are visible the moment Delete returns. A delta ID is its row's
// position past the delta's first ID; a base ID is found through the ID
// index, which the first batch naming an ID below the delta's builds (≈22 ms
// a million rows on two cores) and later batches reuse until a compaction.
//
// Copy-on-write snapshots make one Delete call cost O(existing tombstones +
// batch) regardless of batch size: prefer one call with many IDs over a loop
// of single-ID calls, whose total cost grows quadratically in the tombstone
// count (bounded by the compaction threshold, which counts tombstones too).
func (m *Mutable) Delete(ids ...uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.snap.Load()
	byID := m.baseByID.Load()
	var newTombs, newDead []int
	for _, id := range ids {
		if id >= s.idFirst {
			if k := id - s.idFirst; k < uint64(len(s.deltaKeys)) && s.DeltaLive(int(k)) {
				newDead = append(newDead, int(k))
			}
			continue
		}
		if byID == nil {
			byID = buildIDIndex(s.baseIDs, 0)
			m.baseByID.Store(byID)
		}
		if row, ok := byID.get(id); ok {
			if _, dead := slices.BinarySearch(s.tombPos, row); !dead {
				newTombs = append(newTombs, row)
			}
		}
	}
	// Sorted and compacted, a batch naming one ID twice marks its row once.
	slices.Sort(newTombs)
	slices.Sort(newDead)
	newTombs, newDead = slices.Compact(newTombs), slices.Compact(newDead)
	if len(newTombs) == 0 && len(newDead) == 0 {
		return 0
	}
	ns := &Snapshot{
		base: s.base, baseIDs: s.baseIDs, basePts: s.basePts,
		tombPos:   s.tombPos,
		deltaKeys: s.deltaKeys, deltaWs: s.deltaWs, deltaPts: s.deltaPts,
		deltaDead: s.deltaDead,
		idFirst:   s.idFirst,
		gen:       s.gen,
		epoch:     s.epoch + 1,
	}
	if len(newTombs) > 0 {
		ns.tombPos = mergeSorted(s.tombPos, newTombs)
	}
	if len(newDead) > 0 {
		ns.deltaDead = mergeSorted(s.deltaDead, newDead)
	}
	m.snap.Store(ns)
	return len(newTombs) + len(newDead)
}

// mergeSorted returns a fresh sorted slice holding both sorted inputs. The old
// slice is never written — snapshots sharing it stay valid.
func mergeSorted(old, add []int) []int {
	out := make([]int, 0, len(old)+len(add))
	i, j := 0, 0
	for i < len(old) || j < len(add) {
		if j == len(add) || (i < len(old) && old[i] < add[j]) {
			out = append(out, old[i])
			i++
		} else {
			out = append(out, add[j])
			j++
		}
	}
	return out
}

// Compact merges the delta tail and tombstones into a freshly sorted base and
// swaps it in atomically, bumping the generation. Queries in flight keep
// reading the pre-compaction snapshot; queries starting after Compact returns
// see only the new base. Appends and deletes block for the duration (queries
// never do), which is why a serving engine runs Compact from a background
// goroutine. Compacting an already-compact store is a cheap no-op.
//
// The heavy lifting — sorting the delta tail and merging it with the
// surviving base — runs parallel across GOMAXPROCS via compactSnapshot,
// shrinking the write pause that Append and Delete wait out. The new base has
// no ID index until a Delete needs one.
func (m *Mutable) Compact() {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.snap.Load()
	if len(s.deltaKeys) == 0 && len(s.tombPos) == 0 {
		return
	}
	if len(s.tombPos) == 0 && s.DeltaLiveLen() == 0 {
		// Every delta row is dead and nothing is tombstoned: the base columns
		// are already exact, and so is whatever ID index a Delete built.
		// Republish them under a new generation — dropping the dead tail —
		// without resorting anything.
		m.snap.Store(&Snapshot{
			base: s.base, baseIDs: s.baseIDs, basePts: s.basePts,
			idFirst: s.idFirst + uint64(len(s.deltaKeys)),
			gen:     s.gen + 1, epoch: s.epoch + 1,
		})
		return
	}
	m.baseByID.Store(nil)
	m.snap.Store(compactSnapshot(s, m.hasW, 0))
}

// compactSnapshot builds the post-compaction snapshot of s: base survivors
// keep their (key, ID) order, live delta rows are radix-sorted once, and the
// two runs merge in parallel partitions. Pure — it reads s and touches
// nothing else — so benchmarks and parity tests can drive it directly;
// workers ≤ 0 selects GOMAXPROCS. The output permutation is the unique
// (key, ID) order, bit-identical to the sequential reference for every
// worker count.
func compactSnapshot(s *Snapshot, hasW bool, workers int) *Snapshot {
	base := cols{keys: s.base.keys, ws: s.base.weights, ids: s.baseIDs, pts: s.basePts}
	if len(s.tombPos) > 0 {
		base = filterBase(s, hasW)
	}
	var out cols
	if s.DeltaLiveLen() == 0 {
		out = base
	} else {
		delta := liveDelta(s, hasW)
		delta.keys, delta.ws, delta.ids, delta.pts = sortColumnsByKey(delta.keys, delta.ws, delta.ids, delta.pts, workers)
		if len(base.keys) == 0 {
			out = delta
		} else {
			out = mergeSortedColumns(base, delta, hasW, workers)
		}
	}
	st, err := newStoreSorted(out.keys, out.ws)
	if err != nil {
		panic(err) // unreachable: every row's weight was validated on its way in
	}
	return &Snapshot{
		base:    st,
		baseIDs: out.ids,
		basePts: out.pts,
		idFirst: s.idFirst + uint64(len(s.deltaKeys)),
		gen:     s.gen + 1,
		epoch:   s.epoch + 1,
	}
}

// Gen returns the snapshot's compaction generation.
func (s *Snapshot) Gen() uint64 { return s.gen }

// Epoch returns the snapshot's mutation epoch: a counter bumped by every
// publication — Append, Delete and Compact alike — so two snapshots of one
// Mutable carry the same epoch iff they are the same snapshot. The result
// cache keys on it: any mutation makes previously cached epochs unreachable.
//
//distbound:noalloc
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// BaseLen returns the base row count, tombstoned rows included.
func (s *Snapshot) BaseLen() int { return s.base.Len() }

// BaseStore returns the snapshot's immutable base store. Two snapshots
// returning the same pointer have byte-identical base columns — base row
// positions resolved against one are valid against the other, which is the
// invariant the incremental cover-plan span resolution keys on. Callers must
// keep reading through the tombstone-aware span accessors; the store itself
// knows nothing of deletions.
//
//distbound:noalloc
func (s *Snapshot) BaseStore() *Store { return s.base }

// Tombstones returns the number of tombstoned base rows.
func (s *Snapshot) Tombstones() int { return len(s.tombPos) }

// DeltaLen returns the delta tail length, dead rows included — the row count
// a delta scan walks.
func (s *Snapshot) DeltaLen() int { return len(s.deltaKeys) }

// DeltaLiveLen returns the number of live delta rows.
func (s *Snapshot) DeltaLiveLen() int { return len(s.deltaKeys) - len(s.deltaDead) }

// DeltaDead returns the number of delta rows deleted before a compaction
// collected them. Within one generation the delta tail is append-only and its
// dead set only grows, so two snapshots agreeing on (Gen, DeltaDead) hold
// identical rows — liveness included — over their common delta prefix: the
// invariant the joiner's incremental delta inversion keys on.
//
//distbound:noalloc
func (s *Snapshot) DeltaDead() int { return len(s.deltaDead) }

// DeltaDeadRows returns the dead delta rows, ascending. The slice is shared
// with the snapshot and must be treated as read-only: it lets a reader walking
// the tail in order skip dead rows with one cursor, where DeltaLive searches.
//
//distbound:noalloc
func (s *Snapshot) DeltaDeadRows() []int { return s.deltaDead }

// LiveLen returns the number of live points in the snapshot.
func (s *Snapshot) LiveLen() int {
	return s.base.Len() - len(s.tombPos) + s.DeltaLiveLen()
}

// HasWeights reports whether the snapshot carries an attribute column.
func (s *Snapshot) HasWeights() bool { return s.base.HasWeights() }

// SpanMulti resolves ascending probe keys against the base column in one
// monotone sweep; see Store.SpanMulti. Tombstoned rows are included: they do
// not shift base rows, and the per-span accessors skip them.
//
//distbound:noalloc
func (s *Snapshot) SpanMulti(probes []uint64, out []int) { s.base.SpanMulti(probes, out) }

// CountSpan returns the number of live points in base rows [i, j): the rows
// less the tombstones among them.
//
//distbound:noalloc
func (s *Snapshot) CountSpan(i, j int) int {
	if i >= j {
		return 0
	}
	return j - i - (sort.SearchInts(s.tombPos, j) - sort.SearchInts(s.tombPos, i))
}

// SumSpan returns the live weight sum over base rows [i, j); see FoldSpans.
//
//distbound:noalloc
func (s *Snapshot) SumSpan(i, j int) float64 {
	sum, _, _ := s.foldSpan(i, j)
	return sum
}

// MinSpan returns the minimum live weight over base rows [i, j), +Inf when no
// live row remains; see FoldSpans.
//
//distbound:noalloc
func (s *Snapshot) MinSpan(i, j int) float64 {
	_, mn, _ := s.foldSpan(i, j)
	return mn
}

// MaxSpan is MinSpan for the maximum (-Inf when empty).
//
//distbound:noalloc
//distbound:oracle the join reference test folds MAX spans through it
func (s *Snapshot) MaxSpan(i, j int) float64 {
	_, _, mx := s.foldSpan(i, j)
	return mx
}

// DeltaKey returns delta row k's curve key.
//
//distbound:noalloc
func (s *Snapshot) DeltaKey(k int) uint64 { return s.deltaKeys[k] }

// DeltaWeight returns delta row k's weight; the snapshot must have weights.
//
//distbound:noalloc
func (s *Snapshot) DeltaWeight(k int) float64 { return s.deltaWs[k] }

// DeltaLive reports whether delta row k is still live.
//
//distbound:noalloc
func (s *Snapshot) DeltaLive(k int) bool {
	d := sort.SearchInts(s.deltaDead, k)
	return d == len(s.deltaDead) || s.deltaDead[d] != k
}

// Materialize returns the snapshot's live points (base survivors in key
// order, then live delta rows in append order) with their weights — the
// point relation streaming strategies consume. Every call builds fresh
// slices the caller owns: the snapshot keeps no copy, so an exact read pins
// nothing past its own lifetime.
func (s *Snapshot) Materialize() ([]geom.Point, []float64) {
	n := s.LiveLen()
	pts := make([]geom.Point, 0, n)
	var ws []float64
	if s.HasWeights() {
		ws = make([]float64, 0, n)
	}
	ti := 0
	for row := range s.basePts {
		if ti < len(s.tombPos) && s.tombPos[ti] == row {
			ti++
			continue
		}
		pts = append(pts, s.basePts[row])
		if ws != nil {
			ws = append(ws, s.base.weights[row])
		}
	}
	di := 0
	for k := range s.deltaKeys {
		if di < len(s.deltaDead) && s.deltaDead[di] == k {
			di++
			continue
		}
		pts = append(pts, s.deltaPts[k])
		if ws != nil {
			ws = append(ws, s.deltaWs[k])
		}
	}
	return pts, ws
}

// MemoryBytes returns the snapshot's resident footprint: the base store with
// its retained coordinates and IDs, plus the delta tail and tombstones.
func (s *Snapshot) MemoryBytes() int {
	return s.base.MemoryBytes() +
		16*len(s.basePts) + 8*len(s.baseIDs) +
		8*(len(s.tombPos)+len(s.deltaDead)) +
		8*len(s.deltaKeys) + 8*len(s.deltaWs) + 16*len(s.deltaPts)
}
