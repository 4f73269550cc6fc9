package join

import (
	"context"
	"math"
	"slices"

	"distbound/internal/geom"
	"distbound/internal/pointstore"
	"distbound/internal/pool"
	"distbound/internal/raster"
	"distbound/internal/sfc"
)

// Cover-plan execution: the per-region covers are kept as ONE table — the
// sorted boundary keys every range starts or ends on, and each region's
// ranges as index pairs into them — and the joiner answers from it. What a
// query then costs depends on what changed since the previous one, because
// the two halves of an answer — the per-region fold of the base column and
// the per-region accumulators of the un-compacted delta — are published on
// the joiner and only ever extended:
//
// The fill runs once per base identity (a base store plus its tombstone
// count; compactions and deletes change it, appends do not):
//
//  1. Resolve: every boundary key is resolved against the sorted key column
//     in a single monotone sweep (pointstore.SpanMulti) — sequential access,
//     each boundary located once however many ranges meet at it — and
//     gathered through the index pairs into one region-ordered span column.
//     The spans ride on the partials folded from them, so a fill over the
//     same base store — after a delete, or to add the weight pass — reuses
//     them; only a new base store forces a resolution.
//  2. Fold: per region, the live count of each span in its contiguous slice
//     of the span column comes from the count pass, and — once any query
//     has asked for SUM, AVG, MIN or MAX — its sum, min and max from the
//     weight pass, one span fold for all three (whole blocks through their
//     aggregates, the end rows read, tombstoned rows skipped); both fold in
//     the region's own Lo-ascending range order into the region's base
//     partial, and the partials are published (basePartials). A {count}
//     query never reads a weight, and on one base identity the partials
//     fill at most twice: the count pass, then the count and weight passes.
//
// The inversion is incremental per delta lineage (a compaction generation
// plus its dead-row count; appends extend it, delta deletes and compactions
// restart it):
//
//  3. Invert: each delta row past the published watermark is located among
//     the boundary segments once (stab: one load of its radix bucket's
//     resolution when a single segment spans the bucket, a binary search
//     inside the bucket otherwise) and fanned out to the covering regions'
//     accumulators, in append order, and the accumulators are republished
//     at the new watermark (deltaPartials).
//
// Every query ends with
//
//  4. Merge: one O(regions) pass adds each region's delta accumulator to its
//     base partial and writes the caller's result columns.
//
// A warm query — same base, no new delta rows — is therefore one snapshot
// load, two atomic loads and the merge: no probe, no fold, no allocation.
// Under ingest a query pays the merge plus the rows appended since the last
// query this level served. The engine serves a bound from the coarsest ready
// level at least as fine as its own (a level is a floor), so every bound one
// level serves reads one joiner: its fill, and each appended row's
// inversion, is paid once per level served, not once per level asked for. Tombstones are deliberately not maintained
// incrementally: subtracting a deleted weight from a published SUM would
// associate differently from folding the surviving rows, so a base delete
// invalidates the base partials and the next query refills them.
//
// A parallel fill partitions the regions by range count, so one region with
// a huge cover does not pin a whole worker's tail latency the way
// region-count sharding did; each region is folded whole by one worker, so
// the partials do not depend on the worker count. Inversion and merge always
// run inline for the same reason.
//
// Ranges are not deduplicated across regions: two regions share a range only
// when they share a whole run of leaf cells (30 of 605,435 ranges on a
// 16×16×12 partition at ε = 4), so an index of shared probes costs more table
// than it saves work. Nor is the fill driven from the boundary segments,
// which the stab lists would allow: that is twice the probes, and a
// tombstoned row scan per segment instead of per range.
//
// Result identity. Against re-execution from nothing (partials dropped), at
// any worker count, every aggregate is bit-identical, SUM included: base
// partials are the same values folded in the same order, and delta rows
// accumulate in append order whether inverted in one pass or many. Against
// the per-region reference execution the tests keep (independent binary
// searches over the rasterizer's own ranges, delta brute-scanned): COUNT, MIN
// and MAX are bit-identical — the same spans produce the same per-range
// values, folded per region in the same order. SUM/AVG fold base
// contributions in the identical order too; only the delta tail's
// contributions associate differently (summed per region in phase 3, then
// added once in phase 4, where the reference adds each row to the running
// total), so float sums can differ by re-association exactly when a delta is
// present — never in what is summed.

// keySpan is one cover range as a pair of boundary-key indexes: the keys
// bkeys[lo] … bkeys[hi]-1, or bkeys[lo] … MaxUint64 when hi is -1 (a range
// ending at MaxUint64 has no Hi+1 to index).
type keySpan struct{ lo, hi int32 }

// coverPlan is the immutable cover table of one (regions, bound) pair. It
// depends only on the regions, domain, curve and bound — never on the data —
// so it survives appends, deletes and compactions of every dataset it serves.
type coverPlan struct {
	bkeys []uint64 // sorted, deduplicated boundary keys (Lo and Hi+1 values)

	regOff []int32   // len(regions)+1; ranges[regOff[r]:regOff[r+1]] = r's ranges
	ranges []keySpan // region-ordered, Lo-ascending within a region

	// Boundary-segment stab lists: every key in [bkeys[s], bkeys[s+1]) — and,
	// for the final segment, [bkeys[last], ∞) — is covered by exactly the
	// regions in stabRegions[stabOff[s]:stabOff[s+1]], in region order (range
	// boundaries only ever fall on bkeys). One lookup per delta row or point
	// then fans straight out to the covered regions, with no dependence on
	// how wide any single range is.
	stabOff     []int32
	stabRegions []int32

	// radix[b] is the index of the first boundary key whose top radixBits
	// bits (of a 60-bit leaf key) are ≥ b; bucket radixBuckets holds every
	// key ≥ 2^60, and radix[radixBuckets+1] = len(bkeys). segmentOf binary
	// searches only inside its key's bucket, and only for a bucket its
	// resolution leaves to the search.
	radix []int32

	// resolved[b] is bucket b's resolution, which stab reads before anything
	// else. A bucket is resolved when one boundary segment spans it — no
	// boundary key lies strictly after the bucket's first leaf key — and its
	// segment's stab list holds at most one region: resolved[b] is then that
	// region, or noRegion for an empty list (or a bucket before every
	// boundary). Every other bucket holds searchBucket and is searched.
	resolved []int32
}

// The cover table's radix index: the top 16 bits of a 60-bit leaf key.
const (
	radixBits    = 16
	radixShift   = 2*sfc.MaxLevel - radixBits
	radixBuckets = 1 << radixBits
)

// A bucket resolution that names no region: the bucket's keys are covered
// by none (noRegion), or by a list stab must search for (searchBucket).
const (
	noRegion     = -1
	searchBucket = math.MinInt32
)

// basePartials is the per-region fold of one base column under one tombstone
// set — the output of the fill — with the span resolution it was folded
// from. For one base store the tombstone list only grows, so (base, tombs)
// identifies the live base rows exactly. The fold is a pure function of that
// identity and the plan, so it is published through the joiner's atomic
// pointer and shared read-only by every query until a delete or compaction
// changes the identity. gen orders publications: a reader still holding a
// pre-compaction snapshot must not replace the partials of the base that
// superseded it. acc holds counts, and the three weight columns when the
// weight pass ran (some query asked for a weight aggregate).
//
// spanLo and spanHi are every cover range resolved against base: the rows
// [spanLo[i], spanHi[i]), region-ordered like the plan's ranges. They depend
// only on the plan and the base store — not on deltas, tombstones or the
// query — so the next fill over the same store reuses them, and cover-plan
// maintenance across a compaction is incremental: the table survives
// verbatim, and the first fill against the new base re-runs only resolve.
type basePartials struct {
	base           *pointstore.Store
	gen            uint64
	tombs          int
	spanLo, spanHi []int32
	acc            acc
}

// serves reports whether bp answers over snap's base rows, with the weight
// columns when weights asks for them.
//
//distbound:noalloc
func (bp *basePartials) serves(snap *pointstore.Snapshot, weights bool) bool {
	return bp != nil && bp.base == snap.BaseStore() && bp.tombs == snap.Tombstones() &&
		(bp.weighted() || !weights)
}

// weighted reports whether bp's fill ran the weight pass.
//
//distbound:noalloc
func (bp *basePartials) weighted() bool { return bp.acc.sums != nil }

// deltaPartials is the per-region accumulation of delta rows [0, upto) of
// one delta lineage: within a compaction generation the delta tail is
// append-only and its dead set only grows, so (gen, dead) fixes the content
// and liveness of every row below upto, and any snapshot of the same lineage
// with a longer tail extends these accumulators instead of recomputing them.
// All four columns are maintained whenever the dataset has weights — a row's
// fan-out costs about the same either way, and it spares the watermark a
// per-column history.
type deltaPartials struct {
	gen  uint64
	dead int
	upto int
	acc  acc
}

// extends reports whether dp accumulates a prefix of snap's delta tail.
//
//distbound:noalloc
func (dp *deltaPartials) extends(snap *pointstore.Snapshot) bool {
	return dp != nil && dp.gen == snap.Gen() && dp.dead == snap.DeltaDead() && dp.upto <= snap.DeltaLen()
}

// ProbeStats reports the work one cover-plan execution performed — not the
// size of what it answered from.
type ProbeStats struct {
	// RangesProbed is the number of cover ranges whose span aggregates were
	// computed by a base fill: every region's every range (NumRanges) when
	// this execution filled the base partials — a count pass, or a count and
	// weight pass — 0 when it was served from published ones.
	RangesProbed int
	// DeltaProbed is the number of live delta rows this execution searched
	// into the boundary segments: the rows past the published watermark, 0
	// when the watermark already covered the snapshot's tail.
	DeltaProbed int
}

// buildCoverPlan encodes the set descent's covers as the table: owner r's
// ranges, merged and Lo-ascending, are region r's. They are read in place,
// piece after piece, through one cursor per region that coalesces a range
// continuing across a seam — no per-region list is ever assembled. A region's
// boundary keys — Lo₀, Hi₀+1, Lo₁, Hi₁+1, … — are strictly ascending, so the
// sorted, deduplicated key list is a k-way merge of the regions' sequences
// through a min-heap of the cursors, and each key's index is known the moment
// it is emitted: it goes straight into the range it bounds, with no sort and
// no search. Hi = MaxUint64 has no Hi+1, so such a range — necessarily its
// region's last — is never given an hi and keeps -1.
func buildCoverPlan(covers []raster.Cover) *coverPlan {
	p := &coverPlan{regOff: make([]int32, len(covers)+1)}
	h := make(cursorHeap, 0, len(covers))
	for ri, c := range covers {
		n := 0
		for i, rs := range c {
			n += len(rs)
			if i > 0 && continues(c[i-1][len(c[i-1])-1], rs[0]) {
				n--
			}
		}
		p.regOff[ri+1] = p.regOff[ri] + int32(n)
		if cur := (boundaryCursor{region: int32(ri)}); cur.nextRange(c) {
			h = append(h, cur)
		}
	}
	total := int(p.regOff[len(covers)])
	p.ranges = make([]keySpan, total)
	for i := range p.ranges {
		p.ranges[i].hi = -1
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	keys := make([]uint64, 0, 2*total)
	for len(h) > 0 {
		cur := &h[0]
		if n := len(keys); n == 0 || keys[n-1] != cur.key {
			keys = append(keys, cur.key)
		}
		ks := &p.ranges[int(p.regOff[cur.region])+cur.seq/2]
		alive := true
		if cur.seq&1 == 0 {
			ks.lo = int32(len(keys) - 1)
			cur.key, alive = cur.hi+1, cur.hi != math.MaxUint64
		} else {
			ks.hi = int32(len(keys) - 1)
			alive = cur.nextRange(covers[cur.region])
		}
		cur.seq++
		if !alive {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
	}
	p.bkeys = slices.Clip(keys)
	p.buildStab()
	p.buildRadix()
	return p
}

// boundaryCursor is one region's position in its boundary-key sequence during
// buildCoverPlan's merge: key is the sequence's element seq, hi the current
// range's Hi, and range i of piece the next one of the region's cover.
type boundaryCursor struct {
	key, hi  uint64
	region   int32
	seq      int
	piece, i int
}

// nextRange loads the region's next range from its cover c into key and hi,
// coalescing it with the heads of the following pieces while they continue
// it, and reports false past the cover's last range.
func (cur *boundaryCursor) nextRange(c raster.Cover) bool {
	if cur.piece == len(c) {
		return false
	}
	r := c[cur.piece][cur.i]
	for cur.i++; cur.i == len(c[cur.piece]); {
		if cur.piece, cur.i = cur.piece+1, 0; cur.piece == len(c) || !continues(r, c[cur.piece][0]) {
			break
		}
		r.Hi, cur.i = c[cur.piece][0].Hi, 1
	}
	cur.key, cur.hi = r.Lo, r.Hi
	return true
}

// continues reports whether range next continues range last.
func continues(last, next raster.PosRange) bool {
	return last.Hi != math.MaxUint64 && next.Lo == last.Hi+1
}

// cursorHeap is a min-heap of cursors by key.
type cursorHeap []boundaryCursor

// down restores the heap order below i after h[i]'s key grew.
func (h cursorHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		m := l
		if r := l + 1; r < len(h) && h[r].key < h[l].key {
			m = r
		}
		if h[i].key <= h[m].key {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// segments returns the boundary segments [first, end) range r covers.
func (p *coverPlan) segments(r keySpan) (first, end int32) {
	if r.hi < 0 {
		return r.lo, int32(len(p.bkeys))
	}
	return r.lo, r.hi
}

// buildStab freezes each boundary segment's list of covering regions: a
// range covers exactly the segments between its two boundary indexes, so the
// lists are sized by one counting pass and filled by a second, in region
// order. A region's merged ranges are disjoint, so each stab list holds it at
// most once — fan-out can never double-credit.
func (p *coverPlan) buildStab() {
	p.stabOff = make([]int32, len(p.bkeys)+1)
	for _, r := range p.ranges {
		first, end := p.segments(r)
		p.stabOff[first+1]++
		if int(end) < len(p.bkeys) {
			p.stabOff[end+1]--
		}
	}
	// Running sum once turns the open/close marks into per-segment list
	// lengths, twice into offsets.
	for pass := 0; pass < 2; pass++ {
		for s := 1; s < len(p.stabOff); s++ {
			p.stabOff[s] += p.stabOff[s-1]
		}
	}
	p.stabRegions = make([]int32, p.stabOff[len(p.bkeys)])
	next := slices.Clone(p.stabOff[:len(p.bkeys)])
	for ri := range p.regOff[1:] {
		for _, r := range p.ranges[p.regOff[ri]:p.regOff[ri+1]] {
			for s, end := p.segments(r); s < end; s++ {
				p.stabRegions[next[s]] = int32(ri)
				next[s]++
			}
		}
	}
}

// buildRadix fills the radix offsets in one pass over the sorted keys, and
// each bucket's resolution from them.
func (p *coverPlan) buildRadix() {
	p.radix = make([]int32, radixBuckets+2)
	i := 0
	for b := range radixBuckets + 1 {
		for i < len(p.bkeys) && p.bkeys[i]>>radixShift < uint64(b) {
			i++
		}
		p.radix[b] = int32(i)
	}
	p.radix[radixBuckets+1] = int32(len(p.bkeys))
	p.resolved = make([]int32, radixBuckets+1)
	for b := range p.resolved {
		first, n := p.radix[b], p.radix[b+1]-p.radix[b]
		seg := first - 1 // the segment starting before the bucket
		if n == 1 && p.bkeys[first] == uint64(b)<<radixShift {
			seg, n = first, 0
		}
		switch {
		case n > 0:
			p.resolved[b] = searchBucket
		case seg < 0 || p.stabOff[seg] == p.stabOff[seg+1]:
			p.resolved[b] = noRegion
		case p.stabOff[seg+1]-p.stabOff[seg] == 1:
			p.resolved[b] = p.stabRegions[p.stabOff[seg]]
		default:
			p.resolved[b] = searchBucket
		}
	}
}

// segmentOf returns the boundary segment holding key — the one starting at
// the last boundary key ≤ key — or -1 when key precedes every boundary, where
// nothing is covered. Every boundary key in an earlier radix bucket is below
// key and every one in a later bucket above it, so the binary search runs
// over key's bucket alone.
//
//distbound:noalloc
func (p *coverPlan) segmentOf(key uint64) int {
	b := min(key>>radixShift, radixBuckets)
	lo, hi := int(p.radix[b]), int(p.radix[b+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.bkeys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// stab returns the regions whose covers hold key, in region order: the one
// region or none its radix bucket resolves to, and otherwise the stab list of
// key's boundary segment, empty when key precedes every boundary. A resolved
// key costs one load; only a key in a searched bucket pays segmentOf.
//
//distbound:noalloc
func (p *coverPlan) stab(key uint64) []int32 {
	b := min(key>>radixShift, radixBuckets)
	switch e := p.resolved[b]; {
	case e >= 0:
		return p.resolved[b : b+1]
	case e == noRegion:
		return nil
	}
	seg := p.segmentOf(key)
	if seg < 0 {
		return nil
	}
	return p.stabRegions[p.stabOff[seg]:p.stabOff[seg+1]]
}

// stabPoint returns the regions whose covers hold pt's leaf cell, as stab
// does, and none when pt lies outside the domain. Most points need no leaf
// key: a point's level-radixBits/2 cell is its key's radix bucket (the
// curve's prefix property), and a resolved bucket answers for every key in
// it. Only a point in a searched bucket pays the full leaf encode.
//
//distbound:noalloc
func (p *coverPlan) stabPoint(d sfc.Domain, c sfc.Curve, pt geom.Point) []int32 {
	const shift = sfc.MaxLevel - radixBits/2
	x, y, ok := d.Coord(pt, sfc.MaxLevel)
	if !ok {
		return nil
	}
	b := c.Encode(radixBits/2, x>>shift, y>>shift)
	key := b << radixShift
	if p.resolved[b] == searchBucket {
		key = c.Encode(sfc.MaxLevel, x, y)
	}
	return p.stab(key)
}

// memoryBytes is the plan's resident footprint.
func (p *coverPlan) memoryBytes() int {
	return 8*(len(p.bkeys)+len(p.ranges)) +
		4*(len(p.regOff)+len(p.stabOff)+len(p.stabRegions)+len(p.radix)+len(p.resolved))
}

// AggregateMultiInto computes every aggregate in aggs over the attached
// dataset through the cover table — one monotone boundary sweep, one batched
// count pass per region and one weight pass when an aggregate reads weights,
// the delta tail inverted into the boundary segments once — into
// caller-provided results, allocation-free when warm. One snapshot is loaded
// up front, so every aggregate of one call answers over the same instant of
// the dataset. results must hold one Result per aggregate, positionally
// aligned with aggs, each with Counts (and Sums/Extremes where the aggregate
// needs them) sized to the region count; every slot is overwritten. The
// returned ProbeStats counts the work this call performed: zero on the warm
// path. workers only shapes a base fill; inversion and merge run inline
// whatever it says.
//
//distbound:noalloc
func (j *PointIdxJoiner) AggregateMultiInto(ctx context.Context, aggs []Agg, workers int, results []Result) (ProbeStats, error) {
	if err := j.validateAggs(aggs); err != nil {
		return ProbeStats{}, err
	}
	return j.aggregateSnapshot(ctx, j.src.Snapshot(), needsOf(aggs) != (aggNeeds{}), workers, results)
}

// aggregateSnapshot answers over one snapshot: load the published base
// partials and delta accumulators, bring whichever does not cover snap up to
// it (fillBase, extendDelta — the only steps that allocate), and merge. It
// allocates nothing when both already do. weights asks for the weight
// columns.
//
//distbound:noalloc
func (j *PointIdxJoiner) aggregateSnapshot(ctx context.Context, snap *pointstore.Snapshot, weights bool, workers int, results []Result) (ProbeStats, error) {
	var stats ProbeStats
	var err error
	bp := j.base.Load()
	if !bp.serves(snap, weights) {
		if bp, err = j.fillBase(ctx, snap, weights, workers); err != nil {
			return ProbeStats{}, err
		}
		stats.RangesProbed = j.NumRanges()
	}
	var delta *acc
	if snap.DeltaLen() > 0 {
		dp := j.delta.Load()
		if !(dp.extends(snap) && dp.upto == snap.DeltaLen()) {
			if dp, stats.DeltaProbed, err = j.extendDelta(ctx, snap, dp); err != nil {
				return ProbeStats{}, err
			}
		}
		delta = &dp.acc
	}
	bp.acc.writeTo(results, delta)
	return stats, nil
}

// fillBase is the fill: it takes the published partials' spans when they
// were resolved against snap's base store and resolves afresh otherwise,
// folds every region's ranges — the count pass, and the weight pass when
// weights asks for it — and publishes the partials with their spans. Racing
// fills of one identity produce identical columns from the same immutable
// base, so any of their publications is correct; a fill for a superseded
// base answers its caller and publishes nothing.
func (j *PointIdxJoiner) fillBase(ctx context.Context, snap *pointstore.Snapshot, weights bool, workers int) (*basePartials, error) {
	p := j.plan
	next := &basePartials{base: snap.BaseStore(), gen: snap.Gen(), tombs: snap.Tombstones()}
	if cur := j.base.Load(); cur != nil && cur.base == next.base {
		next.spanLo, next.spanHi = cur.spanLo, cur.spanHi
	} else {
		var err error
		if next.spanLo, next.spanHi, err = p.resolve(ctx, snap, workers); err != nil {
			return nil, err
		}
	}
	next.acc = newAcc(aggNeeds{sum: weights, min: weights, max: weights}, j.NumRegions())
	shards := pool.SplitWeighted(j.NumRegions(), workers, func(ri int) int64 {
		return int64(p.regOff[ri+1]-p.regOff[ri]) + 1
	})
	err := pool.RunCtx(ctx, len(shards), len(shards), func(_, si int) error {
		return p.foldRegions(ctx, snap, next, shards[si][0], shards[si][1])
	})
	if err != nil {
		return nil, err
	}
	if cur := j.base.Load(); cur == nil || cur.gen < next.gen || (cur.gen == next.gen && cur.tombs <= next.tombs) {
		j.base.Store(next)
	}
	return next, nil
}

// foldRegions folds the base partials of regions [from, to) into bp's acc
// slots: per region, its contiguous slice of bp's span columns goes through
// the batched span folds a chunk of foldChunk ranges at a time — the count
// pass, then the weight pass when bp holds weight columns — and the
// per-range values fold in the region's own Lo-ascending order (the
// reference execution's fold order).
//
//distbound:noalloc
func (p *coverPlan) foldRegions(ctx context.Context, snap *pointstore.Snapshot, bp *basePartials, from, to int) error {
	var (
		cnt         [foldChunk]int64
		sum, mn, mx [foldChunk]float64
	)
	a, weights := &bp.acc, bp.weighted()
	done := ctx.Done()
	for ri := from; ri < to; ri++ {
		rc, rsum, rmn, rmx := int64(0), 0.0, math.Inf(1), math.Inf(-1)
		for lo, end := int(p.regOff[ri]), int(p.regOff[ri+1]); lo < end; lo += foldChunk {
			if canceled(done) {
				return ctx.Err()
			}
			n := min(foldChunk, end-lo)
			los, his := bp.spanLo[lo:lo+n], bp.spanHi[lo:lo+n]
			snap.CountSpans(los, his, cnt[:n])
			for _, c := range cnt[:n] {
				rc += c
			}
			if !weights {
				continue
			}
			snap.FoldSpans(los, his, sum[:n], mn[:n], mx[:n])
			for i := range n {
				rsum, rmn, rmx = rsum+sum[i], min(rmn, mn[i]), max(rmx, mx[i])
			}
		}
		a.counts[ri] = rc
		if weights {
			a.sums[ri], a.mins[ri], a.maxs[ri] = rsum, rmn, rmx
		}
	}
	return nil
}

// extendDelta returns delta accumulators covering snap's whole delta tail:
// cur's copied and extended by the rows past its watermark when cur
// accumulates a prefix of that tail, a fresh inversion from row 0 otherwise
// (a delta delete or compaction started a new lineage, or the reader's
// snapshot predates the watermark). It also returns how many live rows it
// inverted. The result is published unless the slot already holds something
// at least as new — racing extensions of one lineage are identical over
// their common prefix, so keeping the larger watermark loses nothing, and a
// stale reader's inversion is its own answer only.
func (j *PointIdxJoiner) extendDelta(ctx context.Context, snap *pointstore.Snapshot, cur *deltaPartials) (*deltaPartials, int, error) {
	w := snap.HasWeights()
	next := &deltaPartials{
		gen: snap.Gen(), dead: snap.DeltaDead(), upto: snap.DeltaLen(),
		acc: newAcc(aggNeeds{sum: w, min: w, max: w}, j.NumRegions()),
	}
	from := 0
	if cur.extends(snap) {
		next.acc.merge(&cur.acc) // into the identities: a copy
		from = cur.upto
	}
	probed, err := j.invertDelta(ctx, snap, &next.acc, from)
	if err != nil {
		return nil, 0, err
	}
	for {
		cur = j.delta.Load()
		if cur != nil && (cur.gen > next.gen || (cur.gen == next.gen &&
			(cur.dead > next.dead || (cur.dead == next.dead && cur.upto >= next.upto)))) {
			break
		}
		if j.delta.CompareAndSwap(cur, next) {
			break
		}
	}
	return next, probed, nil
}

// resolve is the incremental cover-plan maintenance step: every boundary
// key is resolved against snap's base column in a monotone sweep (chunked
// across workers when asked), and each range's pair of resolved positions is
// gathered into the span columns, hi = -1 becoming the column end. The table
// is untouched — it depends only on regions and bound — so this is all a
// compaction costs the cover plan.
func (p *coverPlan) resolve(ctx context.Context, snap *pointstore.Snapshot, workers int) (spanLo, spanHi []int32, err error) {
	resolved := make([]int, len(p.bkeys))
	chunks := pool.Split(len(p.bkeys), workers)
	err = pool.RunCtx(ctx, len(chunks), len(chunks), func(_, ci int) error {
		lo, hi := chunks[ci][0], chunks[ci][1]
		snap.SpanMulti(p.bkeys[lo:hi], resolved[lo:hi])
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	spanLo, spanHi = make([]int32, len(p.ranges)), make([]int32, len(p.ranges))
	baseLen := int32(snap.BaseLen())
	for i, r := range p.ranges {
		spanLo[i], spanHi[i] = int32(resolved[r.lo]), baseLen
		if r.hi >= 0 {
			spanHi[i] = int32(resolved[r.hi])
		}
	}
	return spanLo, spanHi, nil
}

// invertDelta locates each live delta row from index from on among the
// plan's boundary segments (stab: one load when its radix bucket is
// resolved, a search inside the bucket otherwise) and fans its contribution
// out to the regions covering it, in append order, returning how many rows
// were probed. The rows ascend, so one cursor walks the sorted dead list
// beside them. The lookup plus the fan-out replaces the per-region brute
// scan — O(rows × (log ranges + hits)) at worst instead of O(regions × rows).
//
//distbound:noalloc
func (j *PointIdxJoiner) invertDelta(ctx context.Context, snap *pointstore.Snapshot, a *acc, from int) (int, error) {
	p := j.plan
	done := ctx.Done()
	probed := 0
	hasW := snap.HasWeights()
	dead := snap.DeltaDeadRows()
	d, _ := slices.BinarySearch(dead, from) // the first dead row at or after from
	for k, dn := from, snap.DeltaLen(); k < dn; k++ {
		if k%foldChunk == 0 && canceled(done) {
			return 0, ctx.Err()
		}
		if d < len(dead) && dead[d] == k {
			d++
			continue
		}
		probed++
		w := 1.0 // never read: a weightless dataset's acc holds counts alone
		if hasW {
			w = snap.DeltaWeight(k)
		}
		for _, ri := range p.stab(snap.DeltaKey(k)) {
			a.add(int(ri), w)
		}
	}
	return probed, nil
}
