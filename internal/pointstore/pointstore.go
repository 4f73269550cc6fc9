// Package pointstore implements the resident half of the paper's §3 point
// pipeline: a point dataset linearized to SFC leaf keys, sorted once, and
// kept in memory as an immutable columnar artifact.
//
// The store holds the sorted key column, plus — when the dataset carries a
// weight attribute — a co-sorted weight column with a prefix-sum column
// (SUM/AVG over any key range is two prefix lookups) and sparse per-block
// min/max aggregates (MIN/MAX over a range folds whole blocks and scans only
// the two partial blocks at the ends). A batch of range boundaries resolves
// to row positions in one galloping sweep over the key column (SpanMulti),
// so a cover's COUNT/SUM/AVG/MIN/MAX cost O(Σ log gap + range/BlockSize)
// instead of O(points), which is what lets a serving engine answer repeated
// aggregations over the same points without re-streaming them.
package pointstore

import "math"

// BlockSize is the width of the sparse min/max blocks: small enough that
// partial-block scans at range ends stay cheap, large enough that the block
// columns add under 1% to the weight column's footprint.
const BlockSize = 256

// Store is an immutable, SFC-sorted point dataset with range-aggregate
// columns. It is read-only once built and safe for concurrent use; Mutable
// wraps it with the write path.
type Store struct {
	keys    []uint64  // sorted leaf positions
	weights []float64 // co-sorted attribute column; nil when absent
	prefix  []float64 // prefix[i] = sum(weights[:i]); nil when absent
	blockMin,
	blockMax []float64 // per-BlockSize min/max of weights; nil when absent

	// pin keeps an external backing allocation — an mmap of a snapshot file —
	// reachable for as long as the store is: the columns above may alias it,
	// so its lifetime must cover every Snapshot that can still read them.
	pin any
}

// newStoreSorted builds a Store from already-sorted columns, deriving the
// prefix-sum and block-aggregate columns. keys must be ascending and ws
// either nil or co-sorted with keys.
func newStoreSorted(keys []uint64, ws []float64) *Store {
	s := &Store{keys: keys, weights: ws}
	if ws != nil {
		s.prefix = make([]float64, len(ws)+1)
		for i, w := range ws {
			s.prefix[i+1] = s.prefix[i] + w
		}
		nb := (len(ws) + BlockSize - 1) / BlockSize
		s.blockMin = make([]float64, nb)
		s.blockMax = make([]float64, nb)
		for b := 0; b < nb; b++ {
			mn, mx := math.Inf(1), math.Inf(-1)
			end := min((b+1)*BlockSize, len(ws))
			for i := b * BlockSize; i < end; i++ {
				mn = math.Min(mn, ws[i])
				mx = math.Max(mx, ws[i])
			}
			s.blockMin[b], s.blockMax[b] = mn, mx
		}
	}
	return s
}

// Len returns the number of resident (in-domain) points.
func (s *Store) Len() int { return len(s.keys) }

// HasWeights reports whether the store carries an attribute column; SUM, AVG,
// MIN and MAX require one.
func (s *Store) HasWeights() bool { return s.weights != nil }

// SpanMulti resolves a batch of probe keys against the sorted key column:
// out[i] becomes the position of the first key ≥ probes[i] — exactly
// LowerBound(probes[i]) — for every i. probes must be ascending (duplicates
// allowed) and len(out) ≥ len(probes).
//
// The batch is resolved in one monotone sweep: each answer is ≥ the previous
// one, so the cursor gallops forward from the last position and
// binary-searches only the doubling window it lands in. The column is then
// walked strictly left to right — sequential access instead of N random
// probes — at O(Σ log gap) total comparisons, which is what makes a global
// cover plan's boundary resolution cheaper than per-region probing even
// before deduplication.
//
//distbound:noalloc
func (s *Store) SpanMulti(probes []uint64, out []int) {
	n := len(s.keys)
	cur := 0
	for i, k := range probes {
		// Every position before cur holds a key < the previous probe ≤ k, so
		// the answer can never move backward.
		if cur >= n || s.keys[cur] >= k {
			out[i] = cur
			continue
		}
		// Gallop: find a window (lo, lo+step] with keys[lo] < k ≤ keys[lo+step].
		lo, step := cur, 1
		for lo+step < n && s.keys[lo+step] < k {
			lo += step
			step <<= 1
		}
		hi := min(lo+step, n)
		// Binary search (lo, hi]: keys[lo] < k, keys[hi] ≥ k (or hi == n).
		for lo+1 < hi {
			mid := int(uint(lo+hi) >> 1)
			if s.keys[mid] < k {
				lo = mid
			} else {
				hi = mid
			}
		}
		cur = hi
		out[i] = cur
	}
}

// MemoryBytes returns the store's resident footprint: key column, weight and
// prefix-sum columns, and block aggregates.
func (s *Store) MemoryBytes() int {
	return 8*len(s.keys) + 8*len(s.weights) + 8*len(s.prefix) +
		8*(len(s.blockMin)+len(s.blockMax))
}
