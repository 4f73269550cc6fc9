// Columnar import/export hooks for the persistence layer: a snapshot's
// compacted base rendered as flat columns, and the inverse constructor that
// rebuilds a Mutable from columns decoded out of a snapshot file.
package pointstore

import (
	"fmt"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// BaseColumns is the flat columnar view of a snapshot's base: exactly the
// payload a durable snapshot file carries. All slices are shared with the
// snapshot and must be treated as read-only. Weights is nil iff the dataset
// is weightless. The block aggregates are not part of it: every store
// derives them from Weights.
type BaseColumns struct {
	Keys    []uint64
	IDs     []uint64
	Pts     []geom.Point
	Weights []float64
}

// BaseColumns returns the snapshot's base columns. Tombstones and the delta
// tail are NOT represented: persistence checkpoints call this only after a
// compaction, when the base alone is the whole live dataset; other callers
// must account for s.Tombstones() and the delta themselves.
func (s *Snapshot) BaseColumns() BaseColumns {
	return BaseColumns{Keys: s.base.keys, IDs: s.baseIDs, Pts: s.basePts, Weights: s.base.weights}
}

// NextID returns the ID the next appended point will receive — persisted in
// a snapshot header so that WAL replay after a reopen reassigns exactly the
// IDs the original appends returned.
func (m *Mutable) NextID() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nextID
}

// NewMutableFromColumns rebuilds a Mutable around already-sorted base
// columns — the reopen path of a persisted dataset — deriving the block
// aggregates in one pass. The columns are installed as generation gen with an
// empty delta and no tombstones, and are only ever read. Only structural
// validity is checked here — consistent lengths, strict (key, ID) order,
// unique IDs below nextID, finite weights; byte-level integrity is the
// caller's contract (the persist layer admits no section whose checksum does
// not match). Uniqueness is checked on the ID index, which the check sorts
// anyway and which is then installed for Delete.
func NewMutableFromColumns(cols BaseColumns, d sfc.Domain, c sfc.Curve, dropped int, nextID, gen uint64) (*Mutable, error) {
	n := len(cols.Keys)
	if len(cols.IDs) != n || len(cols.Pts) != n || (cols.Weights != nil && len(cols.Weights) != n) {
		return nil, fmt.Errorf("pointstore: column lengths disagree: %d keys, %d ids, %d points, %d weights",
			n, len(cols.IDs), len(cols.Pts), len(cols.Weights))
	}
	for i := 0; i < n; i++ {
		if cols.IDs[i] >= nextID {
			return nil, fmt.Errorf("pointstore: row %d carries ID %d ≥ nextID %d", i, cols.IDs[i], nextID)
		}
		if i > 0 && (cols.Keys[i] < cols.Keys[i-1] ||
			(cols.Keys[i] == cols.Keys[i-1] && cols.IDs[i] <= cols.IDs[i-1])) {
			return nil, fmt.Errorf("pointstore: rows %d..%d break (key, ID) order", i-1, i)
		}
	}
	byID := buildIDIndex(cols.IDs, 0)
	for i := 1; i < n; i++ {
		if a, b := byID.byID[i-1], byID.byID[i]; a.key == b.key {
			return nil, fmt.Errorf("pointstore: ID %d appears at rows %d and %d", a.key, min(a.row, b.row), max(a.row, b.row))
		}
	}
	base, err := newStoreSorted(cols.Keys, cols.Weights)
	if err != nil {
		return nil, err
	}
	m := &Mutable{domain: d, curve: c, hasW: cols.Weights != nil, dropped: dropped, nextID: nextID}
	m.baseByID.Store(byID)
	m.snap.Store(&Snapshot{base: base, baseIDs: cols.IDs, basePts: cols.Pts, idFirst: nextID, gen: gen})
	return m, nil
}
