// Package sorted implements the simplest physical representation for
// linearized cell keys from §3 of the paper: a sorted array probed with
// binary search (the "BS" baseline of Figure 4). COUNT over a key range
// reduces to one lower-bound and one upper-bound lookup.
package sorted

import "sort"

// Column is an immutable sorted column of uint64 keys (duplicates allowed).
type Column struct {
	keys []uint64
}

// New builds a Column from keys, sorting a copy.
func New(keys []uint64) *Column {
	ks := make([]uint64, len(keys))
	copy(ks, keys)
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return &Column{keys: ks}
}

// NewFromSorted builds a Column that takes ownership of an already-sorted
// slice (verified in O(n); it sorts defensively when the input is unsorted).
func NewFromSorted(keys []uint64) *Column {
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			return New(keys)
		}
	}
	return &Column{keys: keys}
}

// Len returns the number of keys.
func (c *Column) Len() int { return len(c.keys) }

// Keys exposes the backing sorted key slice for read-only use (the learned
// index builds over it without copying).
func (c *Column) Keys() []uint64 { return c.keys }

// LowerBound returns the index of the first key ≥ k.
func (c *Column) LowerBound(k uint64) int {
	return sort.Search(len(c.keys), func(i int) bool { return c.keys[i] >= k })
}

// UpperBound returns the index of the first key > k.
func (c *Column) UpperBound(k uint64) int {
	return sort.Search(len(c.keys), func(i int) bool { return c.keys[i] > k })
}

// CountRange returns the number of keys in the inclusive range [lo, hi]:
// two binary searches, the operation whose latency §3 sets out to shrink
// with a learned index.
func (c *Column) CountRange(lo, hi uint64) int {
	if lo > hi {
		return 0
	}
	return c.UpperBound(hi) - c.LowerBound(lo)
}

// MemoryBytes reports the footprint of the key column.
func (c *Column) MemoryBytes() int { return 8 * len(c.keys) }
