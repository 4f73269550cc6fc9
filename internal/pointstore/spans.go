// Span folds: a cover plan's resolved spans — base row ranges [lo, hi) —
// folded to their live COUNT, SUM, MIN and MAX a batch at a time. The probe
// phase of the warm resident path spends its time here, so everything below
// is on the zero-allocation contract.
//
// SUM, MIN and MAX share one fold: a span splits into head rows, whole
// blocks and tail rows; a whole block holding no tombstone contributes its
// per-block aggregates, and every other row is read from the weight column,
// tombstoned rows skipped. A span's answer therefore reads that span's rows
// and nothing else, the scalar accessors are views of the same fold, and a
// span without tombstones folds bit-identically on clean and tombstoned
// snapshots.
package pointstore

import (
	"math"
	"sort"
)

// CountSpans writes the live point count of base rows [los[r], his[r]) to
// out[r] for every range. With no tombstones it is a pure subtract loop;
// otherwise each range pays the same two tombstone searches CountSpan does.
// Spans are int32, as every row index is: a column holds at most 2^31 rows.
//
//distbound:noalloc
func (s *Snapshot) CountSpans(los, his []int32, out []int64) {
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
		out[r] = int64(s.CountSpan(int(los[r]), int(his[r])))
	}
}

// FoldSpans writes the live weight sum, minimum and maximum of base rows
// [los[r], his[r]) to sum[r], mn[r] and mx[r] for every range: 0, +Inf and
// -Inf when no live row remains. A nil column is not asked for and is left
// alone; a non-nil one must hold at least len(los) entries. With every
// column nil it does nothing; otherwise the snapshot must have weights.
//
//distbound:noalloc
func (s *Snapshot) FoldSpans(los, his []int32, sum, mn, mx []float64) {
	if sum == nil && mn == nil && mx == nil {
		return
	}
	for r := range los {
		a, lo, hi := s.foldSpan(int(los[r]), int(his[r]))
		if sum != nil {
			sum[r] = a
		}
		if mn != nil {
			mn[r] = lo
		}
		if mx != nil {
			mx[r] = hi
		}
	}
}

// foldSpan returns the live weight sum, minimum and maximum over base rows
// [i, j), one block-bounded stretch at a time and in row order.
//
//distbound:noalloc
func (s *Snapshot) foldSpan(i, j int) (sum, mn, mx float64) {
	sum, mn, mx = 0, math.Inf(1), math.Inf(-1)
	w, dead := s.base.weights, s.tombPos
	t := sort.SearchInts(dead, i) // the first tombstone at or after row i
	for i < j {
		end := min((i/BlockSize+1)*BlockSize, j)
		if end-i == BlockSize && (t == len(dead) || dead[t] >= end) {
			b := i / BlockSize
			sum += s.base.blockSum[b]
			mn, mx = min(mn, s.base.blockMin[b]), max(mx, s.base.blockMax[b])
			i = end
			continue
		}
		// The live rows of [i, end) are the stretches between its tombstones.
		for ; t < len(dead) && dead[t] < end; t++ {
			sum, mn, mx = foldRows(w[i:dead[t]], sum, mn, mx)
			i = dead[t] + 1
		}
		sum, mn, mx = foldRows(w[i:end], sum, mn, mx)
		i = end
	}
	return sum, mn, mx
}

// foldRows folds ws, in order, into a running sum, minimum and maximum.
//
//distbound:noalloc
func foldRows(ws []float64, sum, mn, mx float64) (float64, float64, float64) {
	for _, w := range ws {
		sum += w
		// Guarded, because a new extreme is rare: the comparison predicts
		// well and keeps min and max off the sum's dependency chain. The
		// builtins still break ties, ordering -0 below +0.
		if w <= mn {
			mn = min(mn, w)
		}
		if w >= mx {
			mx = max(mx, w)
		}
	}
	return sum, mn, mx
}
