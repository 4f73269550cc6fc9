package join

import (
	"context"
	"math"
	"sort"

	"distbound/internal/pointstore"
	"distbound/internal/pool"
	"distbound/internal/raster"
)

// Cover-plan execution: instead of probing the learned index once per
// (region, range) pair, the joiner flattens every region's cover ranges into
// ONE globally sorted, deduplicated range list at construction. What a query
// then costs depends on what changed since the previous one, because the two
// halves of an answer — the per-region fold of the base column and the
// per-region accumulators of the un-compacted delta — are published on the
// joiner and only ever extended:
//
// The fill runs once per base identity (a base store plus its tombstone
// count; compactions and deletes change it, appends do not):
//
//  1. Resolve: every unique span boundary (range Lo / Hi+1 key) is resolved
//     against the sorted key column in a single monotone sweep
//     (pointstore.SpanMulti) — sequential access, each boundary located
//     once no matter how many regions share it. The resolution itself
//     survives deletes; only a new base forces it.
//  2. Probe: per unique range, the span aggregates (count, sum, block
//     min/max, tombstones subtracted) are computed once and shared by every
//     region posting that range.
//  3. Fold: per region, the shared per-range aggregates are folded in the
//     region's own Lo-ascending range order into the region's base partial,
//     and the partials are published (basePartials). Columns fill by need: a
//     {count} query never pays the MIN/MAX block scans, and a later query
//     asking for more refills with the union of what has been asked.
//
// The inversion is incremental per delta lineage (a compaction generation
// plus its dead-row count; appends extend it, delta deletes and compactions
// restart it):
//
//  4. Invert: each delta row past the published watermark is binary-searched
//     into the plan's boundary segments once (O(log ranges)) and fanned out
//     to the segment's covered regions' accumulators, in append order, and
//     the accumulators are republished at the new watermark (deltaPartials).
//
// Every query ends with
//
//  5. Merge: one O(regions) pass adds each region's delta accumulator to its
//     base partial and writes the caller's result columns.
//
// A warm query — same base, no new delta rows — is therefore one snapshot
// load, two atomic loads and the merge: no probe, no fold, no allocation.
// Under ingest a query pays the merge plus the rows appended since the last
// query at this bound. Tombstones are deliberately not maintained
// incrementally: subtracting a deleted weight from a published SUM would
// associate differently from the prefix-difference form, so a base delete
// invalidates the base partials and the next query refills them.
//
// The parallel fill phases partition work by estimated probe cost — resolved
// span length for ranges, range count for regions — so one region with a
// huge cover no longer pins a whole worker's tail latency the way
// region-count sharding did. Inversion and merge always run inline: delta
// accumulators must not depend on the worker count.
//
// Result identity. Against re-execution from nothing (partials dropped),
// every aggregate is bit-identical, SUM included: base partials are the same
// values folded in the same order, and delta rows accumulate in append order
// whether inverted in one pass or many. Against the per-region reference
// execution (AggregateMultiPerRegion): COUNT, MIN and MAX are bit-identical —
// the same spans produce the same per-range values, folded per region in the
// same order. SUM/AVG fold base contributions in the identical order too;
// only the delta tail's contributions associate differently (summed per
// region in phase 4, then added once in phase 5, where the reference adds
// each row to the running total), so float sums can differ by re-association
// exactly when a delta is present — never in what is summed.

// coverPlan is the immutable global execution plan derived from the
// per-region covers. It depends only on the regions, domain, curve and
// bound — never on the data — so it survives appends, deletes and
// compactions of its dataset just like the covers themselves.
type coverPlan struct {
	uniq []raster.PosRange // globally (Lo, Hi)-sorted, deduplicated ranges

	postOff  []int32 // len(uniq)+1; postings[postOff[u]:postOff[u+1]] = regions of uniq[u]
	postings []int32

	bkeys []uint64 // sorted, deduplicated boundary probe keys (Lo and Hi+1 values)
	loB   []int32  // per unique range: bkeys index resolving to the span start
	hiB   []int32  // per unique range: bkeys index resolving to the span end; -1 ⇒ column end

	regOff  []int32 // len(regions)+1; regUniq[regOff[r]:regOff[r+1]] = r's ranges
	regUniq []int32 // unique-range index per (region, range), Lo-ascending within a region

	// Boundary-segment stab lists for the inverted delta join: every key in
	// [bkeys[s], bkeys[s+1]) — and, for the final segment, [bkeys[last], ∞)
	// — is covered by exactly the regions in
	// stabRegions[stabOff[s]:stabOff[s+1]] (range boundaries only ever fall
	// on bkeys). One binary search per delta row then fans straight out to
	// the covered regions, with no dependence on how wide any single range
	// is — a walk over candidate ranges would degrade to O(ranges) per row
	// the moment one region's merged cover spans a fat slice of the curve.
	stabOff     []int32
	stabRegions []int32
}

// resolvedSpans is the span resolution of the plan's boundary keys against
// one base column: the positions SpanMulti located plus the per-range SoA
// span list [spanLo[u], spanHi[u]) the batched folds consume. The resolution
// depends only on the plan and the base store — not on deltas, tombstones or
// the query — so it is computed once per base identity, published through
// the joiner's atomic pointer, and shared read-only by every query until a
// compaction installs a new base. That makes cover-plan maintenance across
// compactions incremental: the deduplicated range list, region postings,
// boundary keys and stab lists survive verbatim, and the first query against
// the new base re-runs only this resolution.
type resolvedSpans struct {
	base     *pointstore.Store // identity of the base column resolved against
	resolved []int             // per boundary key: position of the first column key ≥ it
	spanLo   []int
	spanHi   []int
}

// memoryBytes is the resolution's resident footprint.
func (rs *resolvedSpans) memoryBytes() int {
	return 8 * (len(rs.resolved) + len(rs.spanLo) + len(rs.spanHi))
}

// planScratch is the reusable per-range workspace of a base fill, recycled
// through the joiner's sync.Pool so a fill after every compaction or delete
// does not re-allocate range-sized columns. Every slice is sized once for
// the joiner's fixed plan.
type planScratch struct {
	cnt []int64 // per unique range: live row count
	sum []float64
	mn  []float64
	mx  []float64 // nil when the store is weightless

	shards [][2]int // reusable weighted shard bounds
}

// regionAcc is one region's accumulator: the four columns every aggregate
// derives from.
type regionAcc struct {
	cnt int64
	sum float64
	mn  float64
	mx  float64
}

// basePartials is the per-region fold of one base column under one tombstone
// set — the output of the fill. For one base store the tombstone list only
// grows, so (base, tombs) identifies the live base rows exactly. The fold is
// a pure function of that identity and the plan, so it is published through
// the joiner's atomic pointer beside the span resolution and shared
// read-only by every query until a delete or compaction changes the
// identity. gen orders publications: a reader still holding a
// pre-compaction snapshot must not replace the partials of the base that
// superseded it.
type basePartials struct {
	base  *pointstore.Store
	gen   uint64
	tombs int
	have  aggNeeds // which weight columns of acc are filled; cnt always is
	acc   []regionAcc
}

// serves reports whether bp answers needs over snap's base rows.
//
//distbound:noalloc
func (bp *basePartials) serves(snap *pointstore.Snapshot, needs aggNeeds) bool {
	return bp != nil && bp.base == snap.BaseStore() && bp.tombs == snap.Tombstones() &&
		(bp.have.sum || !needs.sum) && (bp.have.min || !needs.min) && (bp.have.max || !needs.max)
}

// deltaPartials is the per-region accumulation of delta rows [0, upto) of
// one delta lineage: within a compaction generation the delta tail is
// append-only and its dead set only grows, so (gen, dead) fixes the content
// and liveness of every row below upto, and any snapshot of the same lineage
// with a longer tail extends these accumulators instead of recomputing them.
// All four columns are always maintained — a row's fan-out costs the same
// cache line either way, and it spares the watermark a per-column history.
type deltaPartials struct {
	gen  uint64
	dead int
	upto int
	acc  []regionAcc
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
	// RangesProbed is the number of unique ranges whose span aggregates were
	// computed by a base fill: the whole unique range list when this
	// execution filled (or widened) the base partials, 0 when it was served
	// from published ones.
	RangesProbed int
	// DeltaProbed is the number of live delta rows this execution searched
	// into the range list: the rows past the published watermark, 0 when the
	// watermark already covered the snapshot's tail.
	DeltaProbed int
}

// buildCoverPlan flattens per-region covers into the global plan.
func buildCoverPlan(covers [][]raster.PosRange) *coverPlan {
	total := 0
	for _, rs := range covers {
		total += len(rs)
	}
	type tagged struct {
		r      raster.PosRange
		region int32
	}
	all := make([]tagged, 0, total)
	for ri, rs := range covers {
		for _, r := range rs {
			all = append(all, tagged{r, int32(ri)})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].r.Lo != all[b].r.Lo {
			return all[a].r.Lo < all[b].r.Lo
		}
		if all[a].r.Hi != all[b].r.Hi {
			return all[a].r.Hi < all[b].r.Hi
		}
		return all[a].region < all[b].region
	})

	p := &coverPlan{}
	// Deduplicate identical (Lo, Hi) ranges; tag each pair with its unique
	// index for the per-region lists below.
	uniqOf := make([]int32, len(all))
	p.postOff = append(p.postOff, 0)
	for i, t := range all {
		if i == 0 || t.r != all[i-1].r {
			p.uniq = append(p.uniq, t.r)
			p.postOff = append(p.postOff, int32(len(p.postings)))
		}
		uniqOf[i] = int32(len(p.uniq) - 1)
		p.postings = append(p.postings, t.region)
		p.postOff[len(p.postOff)-1] = int32(len(p.postings))
	}
	// Per-region unique-range lists: `all` is Lo-sorted and a region's own
	// ranges are disjoint, so distributing in order preserves each region's
	// Lo-ascending fold order.
	p.regOff = make([]int32, len(covers)+1)
	for ri, rs := range covers {
		p.regOff[ri+1] = p.regOff[ri] + int32(len(rs))
	}
	p.regUniq = make([]int32, total)
	fill := make([]int32, len(covers))
	copy(fill, p.regOff[:len(covers)])
	for i, t := range all {
		p.regUniq[fill[t.region]] = uniqOf[i]
		fill[t.region]++
	}

	// Boundary probe keys: Lo and Hi+1 per unique range, sorted and
	// deduplicated. Hi = MaxUint64 cannot be probed as Hi+1; the sentinel -1
	// resolves to the column end at query time.
	keys := make([]uint64, 0, 2*len(p.uniq))
	for _, r := range p.uniq {
		keys = append(keys, r.Lo)
		if r.Hi != math.MaxUint64 {
			keys = append(keys, r.Hi+1)
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for _, k := range keys {
		if n := len(p.bkeys); n == 0 || p.bkeys[n-1] != k {
			p.bkeys = append(p.bkeys, k)
		}
	}
	p.loB = make([]int32, len(p.uniq))
	p.hiB = make([]int32, len(p.uniq))
	for u, r := range p.uniq {
		p.loB[u] = int32(sort.Search(len(p.bkeys), func(i int) bool { return p.bkeys[i] >= r.Lo }))
		if r.Hi == math.MaxUint64 {
			p.hiB[u] = -1
		} else {
			p.hiB[u] = int32(sort.Search(len(p.bkeys), func(i int) bool { return p.bkeys[i] >= r.Hi+1 }))
		}
	}
	p.buildStab(len(covers))
	return p
}

// buildStab sweeps the boundary segments once, maintaining the set of
// covered regions, and freezes each segment's region list. A region's
// merged ranges are disjoint, so it is active at most once at any key and
// each stab list holds it at most once — fan-out can never double-credit.
func (p *coverPlan) buildStab(numReg int) {
	type event struct {
		key    uint64
		region int32
		open   bool
	}
	events := make([]event, 0, 2*len(p.postings))
	for u, r := range p.uniq {
		for _, ri := range p.postings[p.postOff[u]:p.postOff[u+1]] {
			events = append(events, event{r.Lo, ri, true})
			if r.Hi != math.MaxUint64 {
				// A MaxUint64-high range never closes; it stays active
				// through the open-ended final segment.
				events = append(events, event{r.Hi + 1, ri, false})
			}
		}
	}
	sort.Slice(events, func(a, b int) bool { return events[a].key < events[b].key })

	active := make([]int32, 0, numReg) // regions covering the current segment
	pos := make([]int32, numReg)       // index into active, or -1
	for ri := range pos {
		pos[ri] = -1
	}
	p.stabOff = make([]int32, 1, len(p.bkeys)+1)
	ev := 0
	for _, key := range p.bkeys {
		for ev < len(events) && events[ev].key == key {
			e := events[ev]
			ev++
			if e.open {
				pos[e.region] = int32(len(active))
				active = append(active, e.region)
			} else {
				// Swap-remove; patch the moved region's position.
				at := pos[e.region]
				last := active[len(active)-1]
				active[at] = last
				pos[last] = at
				active = active[:len(active)-1]
				pos[e.region] = -1
			}
		}
		p.stabRegions = append(p.stabRegions, active...)
		p.stabOff = append(p.stabOff, int32(len(p.stabRegions)))
	}
}

// memoryBytes is the plan's resident footprint.
func (p *coverPlan) memoryBytes() int {
	return 16*len(p.uniq) + 8*len(p.bkeys) +
		4*(len(p.postOff)+len(p.postings)+len(p.loB)+len(p.hiB)+
			len(p.regOff)+len(p.regUniq)+len(p.stabOff)+len(p.stabRegions))
}

// newScratch sizes a workspace for the plan; hasW decides whether the float
// columns exist.
//
//distbound:allow-scratch-escape pool accessor; fillBase returns the workspace to the pool before returning
func (p *coverPlan) newScratch(hasW bool) *planScratch {
	sc := &planScratch{cnt: make([]int64, len(p.uniq))}
	if hasW {
		sc.sum = make([]float64, len(p.uniq))
		sc.mn = make([]float64, len(p.uniq))
		sc.mx = make([]float64, len(p.uniq))
	}
	return sc
}

// cancelStride throttles per-item context polls on the inline (workers = 1)
// path, mirroring cancelCheckMask for the goroutine fan-outs.
const cancelStride = 4096

// AggregateMultiInto is AggregateMulti writing into caller-provided results
// — the allocation-free form of the cover-plan execution. results must hold
// one Result per aggregate, positionally aligned with aggs, each with
// Counts (and Sums/Extremes where the aggregate needs them) sized to the
// region count; every slot is overwritten. The returned ProbeStats counts
// the work this call performed: zero on the warm path. workers only shapes
// a base fill; inversion and merge run inline whatever it says.
//
//distbound:noalloc
func (j *PointIdxJoiner) AggregateMultiInto(ctx context.Context, aggs []Agg, workers int, results []Result) (ProbeStats, error) {
	if err := j.validateAggs(aggs); err != nil {
		return ProbeStats{}, err
	}
	return j.aggregateSnapshot(ctx, j.src.Snapshot(), needsOf(aggs), workers, results)
}

// aggregateSnapshot answers over one snapshot: load the published base
// partials and delta accumulators, bring whichever does not cover snap up to
// it (fillBase, extendDelta — the only steps that allocate), and merge. It
// allocates nothing when both already do.
//
//distbound:noalloc
func (j *PointIdxJoiner) aggregateSnapshot(ctx context.Context, snap *pointstore.Snapshot, needs aggNeeds, workers int, results []Result) (ProbeStats, error) {
	var stats ProbeStats
	var err error
	bp := j.base.Load()
	if !bp.serves(snap, needs) {
		if bp, err = j.fillBase(ctx, snap, needs, workers); err != nil {
			return ProbeStats{}, err
		}
		stats.RangesProbed = len(j.plan.uniq)
	}
	var delta []regionAcc
	if snap.DeltaLen() > 0 {
		dp := j.delta.Load()
		if !(dp.extends(snap) && dp.upto == snap.DeltaLen()) {
			if dp, stats.DeltaProbed, err = j.extendDelta(ctx, snap, dp); err != nil {
				return ProbeStats{}, err
			}
		}
		delta = dp.acc
	}
	mergeRegions(bp.acc, delta, results)
	return stats, nil
}

// fillBase is the fill: it resolves (or reuses) snap's span resolution,
// probes every unique range for the columns needs asks, folds them per
// region, and publishes the partials. When the published partials already
// describe snap's base rows and merely lack columns, the fill computes the
// union, so the published set only widens while the base rows stand still
// (three widenings at most). Racing fills of one identity produce identical
// columns from the same immutable base, so any of their publications is
// correct; a fill for a superseded base answers its caller and publishes
// nothing.
func (j *PointIdxJoiner) fillBase(ctx context.Context, snap *pointstore.Snapshot, needs aggNeeds, workers int) (*basePartials, error) {
	p := j.plan
	numReg := len(j.covers)
	if cur := j.base.Load(); cur.serves(snap, aggNeeds{}) {
		needs = aggNeeds{sum: needs.sum || cur.have.sum, min: needs.min || cur.have.min, max: needs.max || cur.have.max}
	}
	next := &basePartials{
		base: snap.BaseStore(), gen: snap.Gen(), tombs: snap.Tombstones(),
		have: needs, acc: make([]regionAcc, numReg),
	}
	sc := j.scratch.Get().(*planScratch)
	defer j.scratch.Put(sc)

	// Span resolution is shared, not per-fill: spansFor returns the plan's
	// published resolution when snap still serves the base it was resolved
	// against (a fill forced by a delete), and re-resolves only on
	// base-identity change.
	rs, err := j.spansFor(ctx, snap, workers)
	if err != nil {
		return nil, err
	}
	done := ctx.Done()
	if workers > 1 {
		if err := j.probeShards(ctx, snap, rs, sc, needs, workers); err != nil {
			return nil, err
		}
		shards := pool.SplitWeighted(numReg, workers, func(ri int) int64 {
			return int64(p.regOff[ri+1]-p.regOff[ri]) + 1
		}, sc.shards)
		sc.shards = shards
		err := pool.RunCtx(ctx, len(shards), len(shards), func(_, si int) error {
			for ri := shards[si][0]; ri < shards[si][1]; ri++ {
				j.foldRegion(sc, needs, ri, next.acc)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	} else {
		for lo, n := 0, len(p.uniq); lo < n; lo += cancelStride {
			if canceled(done) {
				return nil, ctx.Err()
			}
			probeRanges(snap, rs, sc, needs, lo, min(lo+cancelStride, n))
		}
		for ri := 0; ri < numReg; ri++ {
			if ri&(cancelStride-1) == 0 && canceled(done) {
				return nil, ctx.Err()
			}
			j.foldRegion(sc, needs, ri, next.acc)
		}
	}
	if cur := j.base.Load(); cur == nil || cur.gen < next.gen || (cur.gen == next.gen && cur.tombs <= next.tombs) {
		j.base.Store(next)
	}
	return next, nil
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
	next := &deltaPartials{
		gen: snap.Gen(), dead: snap.DeltaDead(), upto: snap.DeltaLen(),
		acc: make([]regionAcc, len(j.covers)),
	}
	from := 0
	if cur.extends(snap) {
		copy(next.acc, cur.acc)
		from = cur.upto
	} else {
		for ri := range next.acc {
			next.acc[ri].mn, next.acc[ri].mx = math.Inf(1), math.Inf(-1)
		}
	}
	probed, err := j.invertDelta(ctx, snap, next.acc, from)
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

// mergeRegions writes every region's answer: its base partial plus, when the
// snapshot carries a delta tail, its delta accumulator — one add per column,
// exactly what the fold's last step did when it ran per query.
//
//distbound:noalloc
func mergeRegions(base, delta []regionAcc, results []Result) {
	for ri, a := range base {
		if delta != nil {
			d := &delta[ri]
			a.cnt += d.cnt
			a.sum += d.sum
			a.mn = math.Min(a.mn, d.mn)
			a.mx = math.Max(a.mx, d.mx)
		}
		a.writeTo(results, ri)
	}
}

// writeTo stores the accumulator as region ri's slot of every result, each
// taking the columns its aggregate derives from.
//
//distbound:noalloc
func (a regionAcc) writeTo(results []Result, ri int) {
	for k := range results {
		results[k].Counts[ri] = a.cnt
		if results[k].Sums != nil {
			results[k].Sums[ri] = a.sum
		}
		if results[k].Extremes != nil {
			if results[k].Agg == Min {
				results[k].Extremes[ri] = a.mn
			} else {
				results[k].Extremes[ri] = a.mx
			}
		}
	}
}

// spansFor returns the plan's span resolution for snap's base: the published
// one when the base identity matches (the warm path — one atomic load, no
// allocation), a fresh resolution otherwise. Two queries racing past a
// compaction may both resolve; they produce identical content from the same
// immutable base, so either publication is correct and the loser's work is
// garbage, not corruption.
//
//distbound:noalloc
func (j *PointIdxJoiner) spansFor(ctx context.Context, snap *pointstore.Snapshot, workers int) (*resolvedSpans, error) {
	if rs := j.spans.Load(); rs != nil && rs.base == snap.BaseStore() {
		return rs, nil
	}
	rs, err := j.refreshSpans(ctx, snap, workers)
	if err != nil {
		return nil, err
	}
	j.spans.Store(rs)
	return rs, nil
}

// refreshSpans is the incremental cover-plan maintenance step: every unique
// span boundary is resolved against snap's base column in a monotone sweep
// (chunked across workers when asked), and the hiB = -1 sentinel becomes the
// column end. The plan's range list, postings and stab lists are untouched —
// they depend only on regions and bound — so this is all a compaction costs
// the cover plan.
func (j *PointIdxJoiner) refreshSpans(ctx context.Context, snap *pointstore.Snapshot, workers int) (*resolvedSpans, error) {
	p := j.plan
	rs := &resolvedSpans{
		base:     snap.BaseStore(),
		resolved: make([]int, len(p.bkeys)),
		spanLo:   make([]int, len(p.uniq)),
		spanHi:   make([]int, len(p.uniq)),
	}
	if workers > 1 {
		chunks := shardBounds(len(p.bkeys), workers)
		err := pool.RunCtx(ctx, len(chunks), len(chunks), func(_, ci int) error {
			lo, hi := chunks[ci][0], chunks[ci][1]
			snap.SpanMulti(p.bkeys[lo:hi], rs.resolved[lo:hi])
			return nil
		})
		if err != nil {
			return nil, err
		}
	} else {
		if canceled(ctx.Done()) {
			return nil, ctx.Err()
		}
		snap.SpanMulti(p.bkeys, rs.resolved)
	}
	baseLen := snap.BaseLen()
	for u := range p.uniq {
		rs.spanLo[u] = rs.resolved[p.loB[u]]
		if p.hiB[u] >= 0 {
			rs.spanHi[u] = rs.resolved[p.hiB[u]]
		} else {
			rs.spanHi[u] = baseLen
		}
	}
	return rs, nil
}

// probeShards runs phase 2 across workers: the unique ranges are probed in
// shards weighted by resolved span length, so one huge range cannot
// serialize a worker behind a tail of small ones.
func (j *PointIdxJoiner) probeShards(ctx context.Context, snap *pointstore.Snapshot, rs *resolvedSpans, sc *planScratch, needs aggNeeds, workers int) error {
	p := j.plan
	spanLen := func(u int) int64 {
		// The +16 floor charges the fixed per-range work (tombstone searches,
		// prefix lookups) so empty spans still count toward balance.
		return int64(rs.spanHi[u]-rs.spanLo[u]) + 16
	}
	shards := pool.SplitWeighted(len(p.uniq), workers, spanLen, sc.shards)
	sc.shards = shards
	return pool.RunCtx(ctx, len(shards), len(shards), func(_, si int) error {
		done := ctx.Done()
		for lo := shards[si][0]; lo < shards[si][1]; lo += cancelStride {
			if canceled(done) {
				return ctx.Err()
			}
			probeRanges(snap, rs, sc, needs, lo, min(lo+cancelStride, shards[si][1]))
		}
		return nil
	})
}

// probeRanges computes the span aggregates of unique ranges [lo, hi) into the
// scratch columns — the shared values every posting region folds from — via
// the batched span folds, one pass per needed aggregate column. The span
// bounds come from the shared resolution, which the caller has matched to
// snap's base.
//
//distbound:noalloc
func probeRanges(snap *pointstore.Snapshot, rs *resolvedSpans, sc *planScratch, needs aggNeeds, lo, hi int) {
	los, his := rs.spanLo[lo:hi], rs.spanHi[lo:hi]
	snap.CountSpans(los, his, sc.cnt[lo:hi])
	if needs.sum {
		snap.SumSpans(los, his, sc.sum[lo:hi])
	}
	if needs.min {
		snap.MinSpans(los, his, sc.mn[lo:hi])
	}
	if needs.max {
		snap.MaxSpans(los, his, sc.mx[lo:hi])
	}
}

// invertDelta searches each live delta row from index from on into the
// plan's boundary segments and fans its contribution out to the segment's
// stab list of covered regions, in append order, returning how many rows
// were probed. One binary search plus the fan-out replaces the per-region
// brute scan — O(rows × (log ranges + hits)) instead of O(regions × rows).
//
//distbound:noalloc
func (j *PointIdxJoiner) invertDelta(ctx context.Context, snap *pointstore.Snapshot, acc []regionAcc, from int) (int, error) {
	p := j.plan
	done := ctx.Done()
	probed := 0
	hasW := snap.HasWeights()
	for k, dn := from, snap.DeltaLen(); k < dn; k++ {
		if k&(cancelStride-1) == 0 && canceled(done) {
			return 0, ctx.Err()
		}
		if !snap.DeltaLive(k) {
			continue
		}
		key := snap.DeltaKey(k)
		probed++
		// Last boundary key ≤ key names the segment; keys below the first
		// boundary precede every range and cover nothing.
		lo, hi := 0, len(p.bkeys)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if p.bkeys[mid] <= key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == 0 {
			continue
		}
		stab := p.stabRegions[p.stabOff[lo-1]:p.stabOff[lo]]
		if len(stab) == 0 {
			continue
		}
		if !hasW {
			for _, ri := range stab {
				acc[ri].cnt++
			}
			continue
		}
		w := snap.DeltaWeight(k)
		for _, ri := range stab {
			a := &acc[ri]
			a.cnt++
			a.sum += w
			a.mn = math.Min(a.mn, w)
			a.mx = math.Max(a.mx, w)
		}
	}
	return probed, nil
}

// foldRegion folds one region's base partial from the shared per-range
// values, in the region's own Lo-ascending order (preserving the reference
// execution's fold order); columns needs does not name stay at their
// identities and are never read.
//
//distbound:noalloc
func (j *PointIdxJoiner) foldRegion(sc *planScratch, needs aggNeeds, ri int, acc []regionAcc) {
	p := j.plan
	a := regionAcc{mn: math.Inf(1), mx: math.Inf(-1)}
	for _, u := range p.regUniq[p.regOff[ri]:p.regOff[ri+1]] {
		a.cnt += sc.cnt[u]
		if needs.sum {
			a.sum += sc.sum[u]
		}
		if needs.min {
			a.mn = math.Min(a.mn, sc.mn[u])
		}
		if needs.max {
			a.mx = math.Max(a.mx, sc.mx[u])
		}
	}
	acc[ri] = a
}
