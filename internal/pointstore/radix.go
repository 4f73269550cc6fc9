// Parallel compaction machinery: a stable MSB-radix sort over the uint64 key
// column, a partitioned merge of two (key, ID)-sorted column sets, and the ID
// index — the base's (ID, row) pairs sorted by the same radix sort — the
// pieces Compact composes so a write pause is bounded by memory bandwidth
// across cores instead of a single-threaded comparison sort.
//
// Every entry point here produces the unique (key, ID)-sorted permutation of
// its input (IDs are unique, so that order is total), which makes the result
// bit-identical to the sequential reference path regardless of worker count
// or partitioning — the property the compaction parity test pins.
package pointstore

import (
	"math"
	"math/bits"
	"sort"

	"distbound/internal/geom"
	"distbound/internal/pool"
	"distbound/internal/sfc"
)

// keyRef pairs one key with its original row — the 16-byte unit the radix
// passes move, so the wide point and weight columns are gathered exactly once
// through the final permutation instead of riding every pass. The int32 row
// caps a column at 2^31 rows; Append would exhaust memory long before that.
type keyRef struct {
	key uint64
	row int32
}

const (
	// radixParallelMin is the row count under which the comparison sort wins
	// outright: counting passes and per-worker histograms cost more than they
	// save on small columns. At or above it the radix sort wins at any worker
	// count, one included.
	radixParallelMin = 1 << 13
	// insertionSortMax bounds the bucket size finished by insertion sort
	// instead of LSD counting passes; tiny buckets are dominated by the
	// counting array setup.
	insertionSortMax = 64
)

// sortColumnsByKey returns the four columns sorted by (key, ID). ids must be
// ascending — both call sites satisfy it: construction feeds input-order IDs
// and compaction feeds the delta tail in append (ID) order — so a stable
// sort by key alone lands in (key, ID) order. workers ≤ 0 selects
// GOMAXPROCS; the result is identical for every worker count because the
// (key, ID) permutation is unique.
func sortColumnsByKey(keys []uint64, ws []float64, ids []uint64, pts []geom.Point, workers int) ([]uint64, []float64, []uint64, []geom.Point) {
	n := len(keys)
	if n > math.MaxInt32 {
		panic("pointstore: column exceeds 2^31 rows")
	}
	pairs := make([]keyRef, n)
	for i := range pairs {
		pairs[i] = keyRef{keys[i], int32(i)}
	}
	return gatherColumns(pairs, keys, ws, ids, pts, sortPairs(pairs, workers))
}

// sortPairs sorts pairs — whose rows must ascend — by (key, row), radix or
// comparison sort by size alone, and returns the worker count it settled on.
func sortPairs(pairs []keyRef, workers int) int {
	n := len(pairs)
	w := pool.Workers(workers, n/radixParallelMin+1)
	if n >= radixParallelMin {
		radixSortPairs(pairs, w)
	} else {
		sortPairsCmp(pairs)
	}
	return w
}

// SortedKeys linearizes pts over the domain and returns the in-domain rows in
// (key, input position) order — NewMutable's base order: keys[i] is the leaf
// key of pts[rows[i]]. A caller partitioning one point set by key range sorts
// it here once and hands each run to NewMutableSorted.
func SortedKeys(pts []geom.Point, d sfc.Domain, c sfc.Curve) (keys []uint64, rows []int32) {
	if len(pts) > math.MaxInt32 {
		panic("pointstore: column exceeds 2^31 rows")
	}
	pairs := make([]keyRef, 0, len(pts))
	for i, p := range pts {
		if pos, ok := d.LeafPos(c, p); ok {
			pairs = append(pairs, keyRef{pos, int32(i)})
		}
	}
	sortPairs(pairs, 0)
	keys = make([]uint64, len(pairs))
	rows = make([]int32, len(pairs))
	for i, p := range pairs {
		keys[i], rows[i] = p.key, p.row
	}
	return keys, rows
}

// sortPairsCmp is the small-input sort: a comparison sort on (key, row),
// which equals the stable-by-key order because rows ascend in the input.
func sortPairsCmp(pairs []keyRef) {
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].key != pairs[b].key {
			return pairs[a].key < pairs[b].key
		}
		return pairs[a].row < pairs[b].row
	})
}

// radixSortPairs stable-sorts pairs by key: one parallel counting pass on the
// most significant byte where any two keys differ scatters the pairs into 256
// buckets, then the buckets — independent and already ordered relative to
// each other — are finished concurrently with stable LSD counting passes
// over the remaining differing bytes. Constant bytes (common under Hilbert
// keys, whose high bits encode the shared domain prefix) are skipped
// entirely.
func radixSortPairs(pairs []keyRef, workers int) {
	n := len(pairs)
	chunks := pool.Split(n, workers)

	// diff accumulates the bits on which any two keys disagree; bytes outside
	// it need no pass at all.
	diffs := make([]uint64, len(chunks))
	first := pairs[0].key
	pool.Run(len(chunks), workers, func(_, ci int) error {
		var d uint64
		for i := chunks[ci][0]; i < chunks[ci][1]; i++ {
			d |= pairs[i].key ^ first
		}
		diffs[ci] = d
		return nil
	})
	var diff uint64
	for _, d := range diffs {
		diff |= d
	}
	if diff == 0 {
		return // all keys equal; input order is already the stable order
	}
	topByte := (bits.Len64(diff) - 1) / 8
	shift := uint(8 * topByte)

	// Phase 1 — parallel stable MSB scatter: per-chunk histograms, then
	// bucket-major/chunk-minor exclusive prefixes give every (chunk, bucket)
	// its disjoint output window. Chunks are contiguous in input order and
	// each chunk scatters in order, so every bucket receives its pairs in
	// input order — the stability the ID tie-break rides on.
	hist := make([][256]int32, len(chunks))
	pool.Run(len(chunks), workers, func(_, ci int) error {
		h := &hist[ci]
		for i := chunks[ci][0]; i < chunks[ci][1]; i++ {
			h[(pairs[i].key>>shift)&0xff]++
		}
		return nil
	})
	var bucketStart [257]int32
	cur := int32(0)
	for b := 0; b < 256; b++ {
		bucketStart[b] = cur
		for ci := range chunks {
			c := hist[ci][b]
			hist[ci][b] = cur
			cur += c
		}
	}
	bucketStart[256] = cur
	scratch := make([]keyRef, n)
	pool.Run(len(chunks), workers, func(_, ci int) error {
		pos := hist[ci] // private copy: each chunk owns its windows
		for i := chunks[ci][0]; i < chunks[ci][1]; i++ {
			b := (pairs[i].key >> shift) & 0xff
			scratch[pos[b]] = pairs[i]
			pos[b]++
		}
		return nil
	})

	// Remaining differing byte positions below the MSB pass, least
	// significant first — the LSD order that keeps every pass stable.
	var shifts []uint
	for b := 0; b < topByte; b++ {
		if (diff>>(8*uint(b)))&0xff != 0 {
			shifts = append(shifts, 8*uint(b))
		}
	}

	// Phase 2 — finish each bucket independently, sharded by bucket size so
	// one dense bucket does not serialize a worker behind a tail of empty
	// ones. Data sits in scratch; every finish lands it back in pairs.
	shards := pool.SplitWeighted(256, workers, func(b int) int64 {
		return int64(bucketStart[b+1] - bucketStart[b])
	})
	pool.Run(len(shards), len(shards), func(_, si int) error {
		for b := shards[si][0]; b < shards[si][1]; b++ {
			finishBucket(pairs, scratch, int(bucketStart[b]), int(bucketStart[b+1]), shifts)
		}
		return nil
	})
}

// finishBucket sorts scratch[lo:hi] by the remaining differing bytes and
// leaves the result in pairs[lo:hi]. Small buckets insertion-sort on
// (key, row) — identical to the stable order; larger ones run one stable LSD
// counting pass per differing byte, ping-ponged so the final pass writes
// into pairs.
func finishBucket(pairs, scratch []keyRef, lo, hi int, shifts []uint) {
	n := hi - lo
	if n == 0 {
		return
	}
	dst, src := pairs[lo:hi], scratch[lo:hi]
	if n <= insertionSortMax || len(shifts) == 0 {
		copy(dst, src)
		insertionSortPairs(dst)
		return
	}
	if len(shifts)%2 == 0 {
		// An even pass count returns to its starting buffer; start from
		// pairs so it also ends there.
		copy(dst, src)
		src, dst = dst, src
	}
	for _, sh := range shifts {
		countingPass(dst, src, sh)
		src, dst = dst, src
	}
}

// countingPass stable-scatters src into dst by the byte at shift.
func countingPass(dst, src []keyRef, shift uint) {
	var cnt [256]int32
	for i := range src {
		cnt[(src[i].key>>shift)&0xff]++
	}
	var sum int32
	for b := range cnt {
		c := cnt[b]
		cnt[b] = sum
		sum += c
	}
	for i := range src {
		b := (src[i].key >> shift) & 0xff
		dst[cnt[b]] = src[i]
		cnt[b]++
	}
}

// insertionSortPairs sorts a tiny slice by (key, row); the row tie-break
// reproduces the stable order because rows ascend in the original input and
// every pass so far preserved that order within equal keys.
func insertionSortPairs(a []keyRef) {
	for i := 1; i < len(a); i++ {
		p := a[i]
		j := i - 1
		for j >= 0 && (a[j].key > p.key || (a[j].key == p.key && a[j].row > p.row)) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = p
	}
}

// gatherColumns permutes the four columns through the sorted pairs, sharded
// across workers — each output row is written exactly once, so shards never
// overlap.
func gatherColumns(pairs []keyRef, keys []uint64, ws []float64, ids []uint64, pts []geom.Point, workers int) ([]uint64, []float64, []uint64, []geom.Point) {
	n := len(pairs)
	sk := make([]uint64, n)
	si := make([]uint64, n)
	sp := make([]geom.Point, n)
	var sw []float64
	if ws != nil {
		sw = make([]float64, n)
	}
	chunks := pool.Split(n, workers)
	pool.Run(len(chunks), workers, func(_, ci int) error {
		for i := chunks[ci][0]; i < chunks[ci][1]; i++ {
			j := pairs[i].row
			sk[i], si[i], sp[i] = keys[j], ids[j], pts[j]
			if sw != nil {
				sw[i] = ws[j]
			}
		}
		return nil
	})
	return sk, sw, si, sp
}

// cols bundles the four co-sorted columns compaction moves around.
type cols struct {
	keys []uint64
	ws   []float64 // nil when weightless
	ids  []uint64
	pts  []geom.Point
}

// mergeSortedColumns merges two (key, ID)-sorted column sets into fresh
// columns. Every ID in b exceeds every ID in a — the delta tail was appended
// after the base was formed and nextID is monotonic — so taking a first on
// key ties is exactly (key, ID) order. Partitions are carved at pivot keys
// drawn from a (the larger side in practice) and merged concurrently; the
// output permutation is unique, so the result is bit-identical for any
// worker count.
func mergeSortedColumns(a, b cols, hasW bool, workers int) cols {
	na, nb := len(a.keys), len(b.keys)
	out := cols{
		keys: make([]uint64, na+nb),
		ids:  make([]uint64, na+nb),
		pts:  make([]geom.Point, na+nb),
	}
	if hasW {
		out.ws = make([]float64, na+nb)
	}
	k := pool.Workers(workers, (na+nb)/radixParallelMin+1)
	// Partition boundaries: aCut slices a evenly; bCut is the first b key ≥
	// the pivot, so every b row equal to a pivot lands in the pivot's own
	// partition — after all a rows with that key that precede the cut, and
	// before (via the in-partition tie rule) those at or after it.
	aCut := make([]int, k+1)
	bCut := make([]int, k+1)
	aCut[k], bCut[k] = na, nb
	for j := 1; j < k; j++ {
		aCut[j] = na * j / k
		pivot := a.keys[aCut[j]]
		bCut[j] = sort.Search(nb, func(i int) bool { return b.keys[i] >= pivot })
	}
	pool.Run(k, k, func(_, j int) error {
		ai, bi, o := aCut[j], bCut[j], aCut[j]+bCut[j]
		aHi, bHi := aCut[j+1], bCut[j+1]
		for ai < aHi && bi < bHi {
			if a.keys[ai] <= b.keys[bi] {
				out.keys[o], out.ids[o], out.pts[o] = a.keys[ai], a.ids[ai], a.pts[ai]
				if hasW {
					out.ws[o] = a.ws[ai]
				}
				ai++
			} else {
				out.keys[o], out.ids[o], out.pts[o] = b.keys[bi], b.ids[bi], b.pts[bi]
				if hasW {
					out.ws[o] = b.ws[bi]
				}
				bi++
			}
			o++
		}
		for ; ai < aHi; ai, o = ai+1, o+1 {
			out.keys[o], out.ids[o], out.pts[o] = a.keys[ai], a.ids[ai], a.pts[ai]
			if hasW {
				out.ws[o] = a.ws[ai]
			}
		}
		for ; bi < bHi; bi, o = bi+1, o+1 {
			out.keys[o], out.ids[o], out.pts[o] = b.keys[bi], b.ids[bi], b.pts[bi]
			if hasW {
				out.ws[o] = b.ws[bi]
			}
		}
		return nil
	})
	return out
}

// idIndex finds a base ID's row: the base's (ID, row) pairs sorted by ID,
// 16 bytes a row, probed by binary search. Tombstoned rows stay in it —
// Delete checks a found row against the snapshot's tombstones — so it changes
// only when the base does, and every new base builds it whole.
type idIndex struct {
	byID []keyRef // key is the point ID
}

// get returns the base row holding id, tombstoned or not.
func (x *idIndex) get(id uint64) (int, bool) {
	i := sort.Search(len(x.byID), func(i int) bool { return x.byID[i].key >= id })
	if i == len(x.byID) || x.byID[i].key != id {
		return 0, false
	}
	return int(x.byID[i].row), true
}

// buildIDIndex pairs each ID of a base's ID column with its row and sorts the
// pairs by ID — the one build path registration, reopen and compaction share.
func buildIDIndex(ids []uint64, workers int) *idIndex {
	pairs := make([]keyRef, len(ids))
	for row, id := range ids {
		pairs[row] = keyRef{id, int32(row)}
	}
	sortPairs(pairs, workers)
	return &idIndex{byID: pairs}
}

// filterBase copies the base survivors — every row not tombstoned — into
// fresh columns, preserving their (key, ID) order. With no tombstones the
// caller can reuse the snapshot's columns directly and skip this copy.
func filterBase(s *Snapshot, hasW bool) cols {
	n := s.base.Len() - len(s.tombPos)
	out := cols{
		keys: make([]uint64, 0, n),
		ids:  make([]uint64, 0, n),
		pts:  make([]geom.Point, 0, n),
	}
	if hasW {
		out.ws = make([]float64, 0, n)
	}
	ti := 0
	for row := range s.baseIDs {
		if ti < len(s.tombPos) && s.tombPos[ti] == row {
			ti++
			continue
		}
		out.keys = append(out.keys, s.base.keys[row])
		out.ids = append(out.ids, s.baseIDs[row])
		out.pts = append(out.pts, s.basePts[row])
		if hasW {
			out.ws = append(out.ws, s.base.weights[row])
		}
	}
	return out
}

// liveDelta copies the live delta rows — dead ones skipped — in append (ID)
// order, the precondition sortColumnsByKey needs.
func liveDelta(s *Snapshot, hasW bool) cols {
	n := s.DeltaLiveLen()
	out := cols{
		keys: make([]uint64, 0, n),
		ids:  make([]uint64, 0, n),
		pts:  make([]geom.Point, 0, n),
	}
	if hasW {
		out.ws = make([]float64, 0, n)
	}
	di := 0
	for k := range s.deltaKeys {
		if di < len(s.deltaDead) && s.deltaDead[di] == k {
			di++
			continue
		}
		out.keys = append(out.keys, s.deltaKeys[k])
		out.ids = append(out.ids, s.deltaIDs[k])
		out.pts = append(out.pts, s.deltaPts[k])
		if hasW {
			out.ws = append(out.ws, s.deltaWs[k])
		}
	}
	return out
}
