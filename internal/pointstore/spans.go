// Batched span folds: the plural counterparts of Snapshot's CountSpan/SumSpan/
// MinSpan/MaxSpan, taking a cover plan's whole resolved span list at once.
// Folding every range in one pass over structure-of-arrays inputs replaces
// the per-range call-and-branch cadence with tight unrolled loops — the probe
// phase of the warm resident path spends its time here, so everything below
// is on the zero-allocation contract.
//
// Bit-compatibility with the scalar accessors is load-bearing: both fold the
// same rows and blocks (partial head rows, whole sparse blocks, partial tail
// rows), and the 4-way unrolled block folds are safe because min/max over
// finite weights — construction and Append reject NaN and ±Inf — are
// order-independent, multiple accumulators included.
package pointstore

import "math"

// SumSpans writes the weight sum of positions [los[r], his[r]) to out[r] for
// every range, via the prefix-sum column: two loads and a subtract per range,
// unrolled 4-way. The store must have weights and len(out) ≥ len(los) ==
// len(his).
//
//distbound:noalloc
func (s *Store) SumSpans(los, his []int, out []float64) {
	p := s.prefix
	n := len(los)
	r := 0
	for ; r+4 <= n; r += 4 {
		out[r] = p[his[r]] - p[los[r]]
		out[r+1] = p[his[r+1]] - p[los[r+1]]
		out[r+2] = p[his[r+2]] - p[los[r+2]]
		out[r+3] = p[his[r+3]] - p[los[r+3]]
	}
	for ; r < n; r++ {
		out[r] = p[his[r]] - p[los[r]]
	}
}

// MinSpans writes the minimum weight of positions [los[r], his[r]) to out[r]
// for every range (+Inf for an empty range). The store must have weights.
//
//distbound:noalloc
func (s *Store) MinSpans(los, his []int, out []float64) {
	for r := range los {
		out[r] = s.minSpanFold(los[r], his[r])
	}
}

// MaxSpans is MinSpans for the maximum (-Inf when empty).
//
//distbound:noalloc
func (s *Store) MaxSpans(los, his []int, out []float64) {
	for r := range los {
		out[r] = s.maxSpanFold(los[r], his[r])
	}
}

// minSpanFold returns the minimum weight over positions [i, j), +Inf for an
// empty span: the span splits once into head rows, whole blocks, and tail
// rows, and the block fold runs 4-way unrolled.
//
//distbound:noalloc
func (s *Store) minSpanFold(i, j int) float64 {
	m := math.Inf(1)
	if i >= j {
		return m
	}
	w := s.weights
	firstFull := (i + BlockSize - 1) / BlockSize
	lastFull := j / BlockSize
	if firstFull >= lastFull {
		for ; i < j; i++ {
			m = math.Min(m, w[i])
		}
		return m
	}
	for ; i < firstFull*BlockSize; i++ {
		m = math.Min(m, w[i])
	}
	bm := s.blockMin[firstFull:lastFull]
	m0, m1, m2, m3 := m, m, m, m
	b := 0
	for ; b+4 <= len(bm); b += 4 {
		m0 = math.Min(m0, bm[b])
		m1 = math.Min(m1, bm[b+1])
		m2 = math.Min(m2, bm[b+2])
		m3 = math.Min(m3, bm[b+3])
	}
	m = math.Min(math.Min(m0, m1), math.Min(m2, m3))
	for ; b < len(bm); b++ {
		m = math.Min(m, bm[b])
	}
	for i = lastFull * BlockSize; i < j; i++ {
		m = math.Min(m, w[i])
	}
	return m
}

// maxSpanFold mirrors minSpanFold over blockMax.
//
//distbound:noalloc
func (s *Store) maxSpanFold(i, j int) float64 {
	m := math.Inf(-1)
	if i >= j {
		return m
	}
	w := s.weights
	firstFull := (i + BlockSize - 1) / BlockSize
	lastFull := j / BlockSize
	if firstFull >= lastFull {
		for ; i < j; i++ {
			m = math.Max(m, w[i])
		}
		return m
	}
	for ; i < firstFull*BlockSize; i++ {
		m = math.Max(m, w[i])
	}
	bm := s.blockMax[firstFull:lastFull]
	m0, m1, m2, m3 := m, m, m, m
	b := 0
	for ; b+4 <= len(bm); b += 4 {
		m0 = math.Max(m0, bm[b])
		m1 = math.Max(m1, bm[b+1])
		m2 = math.Max(m2, bm[b+2])
		m3 = math.Max(m3, bm[b+3])
	}
	m = math.Max(math.Max(m0, m1), math.Max(m2, m3))
	for ; b < len(bm); b++ {
		m = math.Max(m, bm[b])
	}
	for i = lastFull * BlockSize; i < j; i++ {
		m = math.Max(m, w[i])
	}
	return m
}

// CountSpans writes the live point count of base rows [los[r], his[r]) to
// out[r] for every range. With no tombstones it is a pure subtract loop;
// otherwise each range pays the same two tombstone searches CountSpan does.
//
//distbound:noalloc
func (s *Snapshot) CountSpans(los, his []int, out []int64) {
	if len(s.tombPos) == 0 {
		n := len(los)
		r := 0
		for ; r+4 <= n; r += 4 {
			out[r] = int64(his[r] - los[r])
			out[r+1] = int64(his[r+1] - los[r+1])
			out[r+2] = int64(his[r+2] - los[r+2])
			out[r+3] = int64(his[r+3] - los[r+3])
		}
		for ; r < n; r++ {
			out[r] = int64(his[r] - los[r])
		}
		return
	}
	for r := range los {
		out[r] = int64(s.CountSpan(los[r], his[r]))
	}
}

// SumSpans writes the live weight sum of base rows [los[r], his[r]) to out[r]
// for every range: the batched base prefix fold, then — only when tombstones
// exist — a per-range subtraction of the tombstoned prefix difference.
//
//distbound:noalloc
func (s *Snapshot) SumSpans(los, his []int, out []float64) {
	s.base.SumSpans(los, his, out)
	if len(s.tombPos) == 0 {
		return
	}
	for r := range los {
		if los[r] >= his[r] {
			continue
		}
		t, first := s.tombsIn(los[r], his[r])
		if t > 0 {
			out[r] -= s.tombPrefix[first+t] - s.tombPrefix[first]
		}
	}
}

// MinSpans writes the live weight minimum of base rows [los[r], his[r]) to
// out[r] for every range (+Inf when empty). Tombstone-free snapshots — the
// steady state right after a compaction — take the batched store fold;
// otherwise each range falls back to the tombstone-skipping scalar scan.
//
//distbound:noalloc
func (s *Snapshot) MinSpans(los, his []int, out []float64) {
	if len(s.tombPos) == 0 {
		s.base.MinSpans(los, his, out)
		return
	}
	for r := range los {
		out[r] = s.extremeSpan(los[r], his[r], false)
	}
}

// MaxSpans is MinSpans for the maximum (-Inf when empty).
//
//distbound:noalloc
func (s *Snapshot) MaxSpans(los, his []int, out []float64) {
	if len(s.tombPos) == 0 {
		s.base.MaxSpans(los, his, out)
		return
	}
	for r := range los {
		out[r] = s.extremeSpan(los[r], his[r], true)
	}
}
