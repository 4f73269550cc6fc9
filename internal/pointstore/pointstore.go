// Package pointstore implements the resident half of the paper's §3 point
// pipeline: a point dataset linearized to SFC leaf keys, sorted once, and
// kept in memory as an immutable columnar artifact.
//
// The store holds the sorted key column, plus — when the dataset carries a
// weight attribute — a co-sorted weight column with sparse per-block
// sum/min/max aggregates: SUM, MIN and MAX over a key range fold the whole
// blocks it covers through their aggregates and read only the rows of the
// two partial blocks at its ends, so a range's answer depends on that
// range's rows alone. A batch of range boundaries resolves to row positions
// in one galloping sweep over the key column (SpanMulti), so a cover's
// COUNT/SUM/AVG/MIN/MAX cost O(Σ log gap) plus, per range, its whole blocks
// and at most two partial blocks of rows, instead of O(points), which is
// what lets a serving engine answer repeated aggregations over the same
// points without re-streaming them.
package pointstore

import "math"

// BlockSize is the width of the sparse aggregate blocks: small enough that
// partial-block scans at range ends stay cheap, large enough that the three
// block columns add about 1% to the weight column's footprint.
const BlockSize = 256

// Store is an immutable, SFC-sorted point dataset with range-aggregate
// columns. It is read-only once built and safe for concurrent use; Mutable
// wraps it with the write path.
type Store struct {
	keys    []uint64  // sorted leaf positions
	weights []float64 // co-sorted attribute column; nil when absent
	blockSum,
	blockMin,
	blockMax []float64 // per-BlockSize sum/min/max of weights; nil when absent
}

// newStoreSorted builds a Store from already-sorted columns, deriving the
// block columns in one pass. keys must be ascending and ws either nil or
// co-sorted with keys. A non-finite weight fails the build with an error
// naming its row: only the reopen path can meet one, because every other
// caller's weights passed validateWeights on their way in.
func newStoreSorted(keys []uint64, ws []float64) (*Store, error) {
	s := &Store{keys: keys, weights: ws}
	if ws == nil {
		return s, nil
	}
	nb := (len(ws) + BlockSize - 1) / BlockSize
	s.blockSum = make([]float64, nb)
	s.blockMin = make([]float64, nb)
	s.blockMax = make([]float64, nb)
	for b := range nb {
		sum, mn, mx := 0.0, math.Inf(1), math.Inf(-1)
		for _, w := range ws[b*BlockSize : min((b+1)*BlockSize, len(ws))] {
			sum += w
			mn, mx = min(mn, w), max(mx, w)
		}
		// A NaN makes both extremes NaN and fails both comparisons.
		if !(mn > math.Inf(-1) && mx < math.Inf(1)) {
			return nil, validateWeights(ws, len(ws))
		}
		s.blockSum[b], s.blockMin[b], s.blockMax[b] = sum, mn, mx
	}
	return s, nil
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

// MemoryBytes returns the store's resident footprint: key and weight columns
// and block aggregates.
func (s *Store) MemoryBytes() int {
	return 8*len(s.keys) + 8*len(s.weights) +
		8*(len(s.blockSum)+len(s.blockMin)+len(s.blockMax))
}
