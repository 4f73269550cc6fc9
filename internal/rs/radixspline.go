// Package rs implements RadixSpline (Kipf et al., aiDM@SIGMOD'20), the
// single-pass learned index that §3 of the paper builds over linearized cell
// keys: a greedy error-bounded linear spline over the key→position CDF plus
// a radix table that narrows the spline segment search. Lookups interpolate
// the spline to predict a position and correct it with a binary search in a
// window of ± the spline error — so COUNT over a cell range costs two
// narrow searches instead of two full binary searches.
package rs

import (
	"math"
	"math/bits"
)

// Default parameters; Figure 4 uses 25 radix bits and spline error 32.
const (
	DefaultRadixBits   = 18
	DefaultSplineError = 32
)

type splinePoint struct {
	key uint64
	pos int
}

// RadixSpline is an immutable learned index over a sorted key column. It
// shares the key slice with its builder (no copy).
type RadixSpline struct {
	keys   []uint64
	spline []splinePoint
	table  []int32
	shift  uint
	minKey uint64
	maxErr int
}

// Build constructs a RadixSpline over keys, which must be sorted ascending
// (duplicates allowed). radixBits ≤ 0 or splineErr ≤ 0 select the defaults.
// Building is a single pass over the keys.
func Build(keys []uint64, radixBits, splineErr int) *RadixSpline {
	if radixBits <= 0 {
		radixBits = DefaultRadixBits
	}
	if splineErr <= 0 {
		splineErr = DefaultSplineError
	}
	r := &RadixSpline{keys: keys, maxErr: splineErr}
	if len(keys) == 0 {
		r.table = []int32{0, 0}
		return r
	}
	r.minKey = keys[0]
	r.buildSpline(splineErr)
	r.buildRadixTable(radixBits)
	return r
}

// buildSpline runs the greedy spline corridor algorithm over the CDF points
// (key, first position of key).
func (r *RadixSpline) buildSpline(maxErr int) {
	n := len(r.keys)
	emit := func(p splinePoint) { r.spline = append(r.spline, p) }

	emit(splinePoint{r.keys[0], 0})
	if n == 1 {
		return
	}

	base := r.spline[0]
	var upper, lower splinePoint // corridor control points
	havePrev := false
	var prev splinePoint

	process := func(key uint64, pos int) {
		if !havePrev {
			prev = splinePoint{key, pos}
			upper = splinePoint{key, pos + maxErr}
			lower = splinePoint{key, max(pos-maxErr, 0)}
			havePrev = true
			return
		}
		// Slopes from the base spline point.
		upperSlope := slope(base, upper)
		lowerSlope := slope(base, lower)
		curSlope := slope(base, splinePoint{key, pos})
		if curSlope > upperSlope || curSlope < lowerSlope {
			// The corridor is violated: the previous CDF point becomes a
			// spline point and the corridor restarts from it.
			emit(prev)
			base = prev
			upper = splinePoint{key, pos + maxErr}
			lower = splinePoint{key, max(pos-maxErr, 0)}
			prev = splinePoint{key, pos}
			return
		}
		// Narrow the corridor.
		if s := slope(base, splinePoint{key, pos + maxErr}); s < upperSlope {
			upper = splinePoint{key, pos + maxErr}
		}
		if s := slope(base, splinePoint{key, max(pos-maxErr, 0)}); s > lowerSlope {
			lower = splinePoint{key, max(pos-maxErr, 0)}
		}
		prev = splinePoint{key, pos}
	}

	for i := 1; i < n; i++ {
		if r.keys[i] == r.keys[i-1] {
			continue // CDF uses the first position of each distinct key
		}
		process(r.keys[i], i)
	}
	// Always terminate with the last distinct key so interpolation covers
	// the full domain.
	last := splinePoint{r.keys[n-1], lastFirstPos(r.keys)}
	if r.spline[len(r.spline)-1].key != last.key {
		if havePrev && prev.key != last.key {
			// prev is an interior point that may still be needed: the greedy
			// corridor guarantees error only for points up to prev when prev
			// is emitted, so emit it if the final segment would violate the
			// corridor. Emitting unconditionally costs at most one extra
			// point and preserves the bound.
			emit(prev)
		}
		emit(last)
	}
}

// lastFirstPos returns the position of the first occurrence of the final
// key.
func lastFirstPos(keys []uint64) int {
	n := len(keys)
	i := n - 1
	for i > 0 && keys[i-1] == keys[n-1] {
		i--
	}
	return i
}

func slope(a, b splinePoint) float64 {
	return float64(b.pos-a.pos) / float64(b.key-a.key)
}

// buildRadixTable fills table[p] = index of the first spline point whose
// shifted key is ≥ p, so segment search for a key starts at
// table[prefix(key)] and ends at table[prefix(key)+1].
func (r *RadixSpline) buildRadixTable(radixBits int) {
	// Cap the table at roughly one slot per key: more slots than keys buys
	// nothing and would make the index larger than the column on small data.
	if nBits := bits.Len64(uint64(len(r.keys))); radixBits > nBits {
		radixBits = nBits
	}
	keyBits := bits.Len64(r.keys[len(r.keys)-1] - r.minKey)
	if keyBits > radixBits {
		r.shift = uint(keyBits - radixBits)
	}
	size := (r.keys[len(r.keys)-1]-r.minKey)>>r.shift + 2
	r.table = make([]int32, size+1)
	prev := uint64(0)
	for i, sp := range r.spline {
		p := (sp.key - r.minKey) >> r.shift
		for j := prev + 1; j <= p; j++ {
			r.table[j] = int32(i)
		}
		prev = p
	}
	for j := prev + 1; j < uint64(len(r.table)); j++ {
		r.table[j] = int32(len(r.spline))
	}
}

// predict returns the interpolated position estimate for key, which must be
// within [minKey, maxKey].
func (r *RadixSpline) predict(key uint64) int {
	p := (key - r.minKey) >> r.shift
	lo, hi := int(r.table[p]), int(r.table[p+1])
	// The segment containing key is bounded by the spline points around it;
	// binary search the narrowed window for the first spline key > key.
	if lo > 0 {
		lo--
	}
	if hi > len(r.spline) {
		hi = len(r.spline)
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if r.spline[mid].key <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// lo is the first spline index with key > target; segment is [lo-1, lo].
	if lo == 0 {
		return r.spline[0].pos
	}
	if lo == len(r.spline) {
		return r.spline[len(r.spline)-1].pos
	}
	a, b := r.spline[lo-1], r.spline[lo]
	t := float64(key-a.key) / float64(b.key-a.key)
	return a.pos + int(math.Round(t*float64(b.pos-a.pos)))
}

// LowerBound returns the index of the first key ≥ k.
func (r *RadixSpline) LowerBound(k uint64) int {
	n := len(r.keys)
	if n == 0 || k <= r.minKey {
		return 0
	}
	if k > r.keys[n-1] {
		return n
	}
	est := r.predict(k)
	// Correct within the error window (+1 guards the rounding of the
	// interpolation itself).
	lo := max(est-r.maxErr-1, 0)
	hi := est + r.maxErr + 1
	if hi > n {
		hi = n
	}
	// The window is a guarantee for keys present in the column; grow it
	// defensively if the target escaped (never happens when the corridor
	// invariant holds, but costs nothing to keep lookups correct).
	for lo > 0 && r.keys[lo] >= k {
		lo = max(lo-r.maxErr, 0)
	}
	for hi < n && r.keys[hi-1] < k {
		hi = min(hi+r.maxErr, n)
	}
	// Binary search within [lo, hi).
	for lo < hi {
		mid := (lo + hi) / 2
		if r.keys[mid] >= k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// UpperBound returns the index of the first key > k.
func (r *RadixSpline) UpperBound(k uint64) int {
	if k == math.MaxUint64 {
		return len(r.keys)
	}
	return r.LowerBound(k + 1)
}

// CountRange returns the number of keys in the inclusive range [lo, hi] —
// the aggregation primitive of §3 (two spline lookups).
func (r *RadixSpline) CountRange(lo, hi uint64) int {
	if lo > hi {
		return 0
	}
	return r.UpperBound(hi) - r.LowerBound(lo)
}

// NumSplinePoints reports the spline size (for ablation reporting).
func (r *RadixSpline) NumSplinePoints() int { return len(r.spline) }

// MemoryBytes reports the index footprint excluding the shared key column.
//
//distbound:api the learned index's footprint, which stays far below the key column's
func (r *RadixSpline) MemoryBytes() int {
	return 16*len(r.spline) + 4*len(r.table)
}
