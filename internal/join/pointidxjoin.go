package join

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"distbound/internal/geom"
	"distbound/internal/pointstore"
	"distbound/internal/pool"
	"distbound/internal/raster"
)

// PointIdxJoiner answers the §5 aggregation join against a resident point
// dataset instead of a streamed PointSet. The point side is a
// pointstore.Mutable — an SFC-sorted base column under a RadixSpline learned
// index with prefix-sum and block min/max columns, plus an unsorted delta
// tail and tombstone set for points appended or deleted since the last
// compaction — and each region is covered once by its conservative
// distance-bounded hierarchical raster, kept as merged 1D leaf ranges.
//
// A query loads one immutable snapshot of the dataset and, per region, folds
// the base's range aggregates over the region's cover ranges (tombstones
// subtracted) and brute-scans the delta tail against the same ranges. The
// result is therefore exactly what a freshly compacted store would return:
// COUNT/MIN/MAX are bit-identical to a full rebuild of the surviving points,
// SUM/AVG agree up to float re-association (the delta tail sums in append
// order rather than key order).
//
// COUNT results are bit-identical to ACTJoiner.Aggregate over the same live
// points at the same bound: both sides test the same leaf positions against
// the same conservative covers.
//
// The covers depend only on the regions, domain, curve and bound — never on
// the data — so one joiner stays valid across appends, deletes and
// compactions of its dataset.
type PointIdxJoiner struct {
	src    *pointstore.Mutable
	covers [][]raster.PosRange // merged leaf ranges per region
	bound  float64
	ranges int

	// plan is the global cover plan (coverplan.go): all (region, range)
	// pairs flattened into one sorted, deduplicated range list with region
	// postings, plus the sorted boundary-key list one monotone sweep
	// resolves. spans publishes the plan's current span resolution — shared
	// by every query against one base, re-resolved incrementally when a
	// compaction installs a new one. base and delta publish the two halves
	// of the current answer the same way: the per-region fold of the base
	// rows, refilled when a delete or compaction changes them, and the
	// per-region delta accumulators up to a watermark, extended as the tail
	// grows. scratch recycles the fill's per-range workspace.
	plan    *coverPlan
	spans   atomic.Pointer[resolvedSpans]
	base    atomic.Pointer[basePartials]
	delta   atomic.Pointer[deltaPartials]
	scratch sync.Pool
}

// NewPointIdxJoiner rasterizes every region at distance bound eps over the
// dataset's domain and curve, fanning the per-region rasterization across
// workers (≤ 0 selects GOMAXPROCS). The returned joiner is immutable and
// safe for concurrent use; it reads a fresh snapshot of the dataset on every
// Aggregate call.
//
//distbound:allow-background context-free convenience over NewPointIdxJoinerCtx; callers hold no context to thread
func NewPointIdxJoiner(regions []geom.Region, src *pointstore.Mutable, eps float64, workers int) (*PointIdxJoiner, error) {
	return NewPointIdxJoinerCtx(context.Background(), regions, src, eps, workers)
}

// NewPointIdxJoinerCtx is NewPointIdxJoiner under a context: canceling ctx
// abandons the per-region cover rasterization between regions and returns
// ctx.Err(), so a build nobody waits for anymore stops burning CPU.
func NewPointIdxJoinerCtx(ctx context.Context, regions []geom.Region, src *pointstore.Mutable, eps float64, workers int) (*PointIdxJoiner, error) {
	if !(eps > 0) {
		return nil, fmt.Errorf("join: point-index join requires a positive bound, got %v", eps)
	}
	j := &PointIdxJoiner{
		src:    src,
		covers: make([][]raster.PosRange, len(regions)),
		bound:  eps,
	}
	d, c := src.Domain(), src.Curve()
	err := pool.RunCtx(ctx, len(regions), pool.Workers(workers, len(regions)), func(_, ri int) error {
		a, err := raster.Hierarchical(regions[ri], d, c, eps, raster.Conservative)
		if err != nil {
			return err
		}
		j.covers[ri] = a.Ranges()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, rs := range j.covers {
		j.ranges += len(rs)
	}
	j.plan = buildCoverPlan(j.covers)
	hasW, plan := src.HasWeights(), j.plan
	j.scratch.New = func() any { return plan.newScratch(hasW) }
	return j, nil
}

// Bound returns the distance bound the covers guarantee.
func (j *PointIdxJoiner) Bound() float64 { return j.bound }

// NumRanges returns the total number of per-region merged cover ranges —
// what the per-region reference execution probes.
func (j *PointIdxJoiner) NumRanges() int { return j.ranges }

// NumUniqueRanges returns the size of the deduplicated global range list —
// what the cover-plan execution probes.
func (j *PointIdxJoiner) NumUniqueRanges() int { return len(j.plan.uniq) }

// NumBoundaryProbes returns how many distinct span boundaries one query
// resolves against the key column — the monotone sweep's length.
func (j *PointIdxJoiner) NumBoundaryProbes() int { return len(j.plan.bkeys) }

// UniqueRanges returns the cover plan's deduplicated global range list,
// sorted by (Lo, Hi) ascending — the key intervals a query at this joiner's
// bound can ever touch, which is what a shard router intersects against its
// shards' key boundaries. The slice is the plan's own backing storage;
// callers must treat it as read-only.
func (j *PointIdxJoiner) UniqueRanges() []raster.PosRange { return j.plan.uniq }

// MemoryBytes returns the cover artifact's footprint — the per-region
// ranges (16 bytes each), the global cover plan, and whichever of the span
// resolution and the per-region partials (32 bytes a region each) are
// published — excluding the shared dataset.
func (j *PointIdxJoiner) MemoryBytes() int {
	n := 16*j.ranges + j.plan.memoryBytes()
	if rs := j.spans.Load(); rs != nil {
		n += rs.memoryBytes()
	}
	if bp := j.base.Load(); bp != nil {
		n += 32 * len(bp.acc)
	}
	if dp := j.delta.Load(); dp != nil {
		n += 32 * len(dp.acc)
	}
	return n
}

// Pending reports the work a query for aggs over snap would perform against
// what the joiner has published right now, in ProbeStats' units: the unique
// ranges a base fill would probe (0 when the base partials serve snap) and
// the delta rows, dead ones included, past the watermark. It is the
// planner's view of the joiner — two atomic loads, no side effects.
func (j *PointIdxJoiner) Pending(snap *pointstore.Snapshot, aggs []Agg) ProbeStats {
	var st ProbeStats
	if !j.base.Load().serves(snap, needsOf(aggs)) {
		st.RangesProbed = len(j.plan.uniq)
	}
	st.DeltaProbed = snap.DeltaLen()
	if dp := j.delta.Load(); dp.extends(snap) {
		st.DeltaProbed -= dp.upto
	}
	return st
}

// DropPartials discards the published base partials and delta accumulators,
// so the next query recomputes both from nothing — the re-execution the
// incremental state is differentially tested against, and what a benchmark
// comparing executions (spatialbench's cover-plan head-to-head) must time.
func (j *PointIdxJoiner) DropPartials() {
	j.base.Store(nil)
	j.delta.Store(nil)
}

// Refresh brings the published span resolution and base partials up to the
// dataset's current snapshot, refilling exactly the columns earlier queries
// asked for. A background compaction calls it right after publishing its new
// base, so the refill happens on the compaction's goroutine instead of
// inside the first query to arrive afterwards. A joiner no query has touched
// has nothing to keep warm and is left alone.
func (j *PointIdxJoiner) Refresh(ctx context.Context, workers int) error {
	cur := j.base.Load()
	snap := j.src.Snapshot()
	if cur == nil || cur.serves(snap, cur.have) {
		return nil
	}
	_, err := j.fillBase(ctx, snap, cur.have, workers)
	return err
}

// validate mirrors PointSet.validate for the resident dataset.
func (j *PointIdxJoiner) validate(agg Agg) error {
	if agg != Count && !j.src.HasWeights() {
		return fmt.Errorf("join: %v requires a weight column", agg)
	}
	return nil
}

// validateAggs checks a whole aggregate set against the dataset's weight
// column.
func (j *PointIdxJoiner) validateAggs(aggs []Agg) error {
	if len(aggs) == 0 {
		return fmt.Errorf("join: no aggregates requested")
	}
	for _, a := range aggs {
		if err := j.validate(a); err != nil {
			return err
		}
	}
	return nil
}

// Aggregate answers the aggregation for every region by probing the learned
// index over the region's cover ranges.
func (j *PointIdxJoiner) Aggregate(agg Agg) (Result, error) {
	return j.AggregateParallel(agg, 1)
}

// AggregateParallel is Aggregate sharded across workers (≤ 0 selects
// GOMAXPROCS) by region. One snapshot is loaded up front, so every region of
// one call sees the same instant of the dataset; every region is computed
// wholly by one worker, so results — including float sums — are identical
// for any worker count.
//
//distbound:allow-background context-free convenience over AggregateMulti; callers hold no context to thread
func (j *PointIdxJoiner) AggregateParallel(agg Agg, workers int) (Result, error) {
	rs, err := j.AggregateMulti(context.Background(), []Agg{agg}, workers)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// aggregateRegion folds the snapshot's base range aggregates over one
// region's cover ranges and brute-scans the delta tail against them, writing
// only that region's slots of every result. Each Span is located once and
// every needed aggregate folds from it — the shared-lookup economy of the
// multi-aggregate path.
//
//distbound:noalloc
func (j *PointIdxJoiner) aggregateRegion(snap *pointstore.Snapshot, results []Result, needs aggNeeds, ri int) {
	var cnt int64
	var sum float64
	mn, mx := math.Inf(1), math.Inf(-1)
	ranges := j.covers[ri]
	for _, r := range ranges {
		lo, hi := snap.Span(r.Lo, r.Hi)
		if lo >= hi {
			continue
		}
		cnt += int64(snap.CountSpan(lo, hi))
		if needs.sum {
			sum += snap.SumSpan(lo, hi)
		}
		if needs.min {
			mn = math.Min(mn, snap.MinSpan(lo, hi))
		}
		if needs.max {
			mx = math.Max(mx, snap.MaxSpan(lo, hi))
		}
	}
	// Delta scan: every live delta row whose key falls in one of the
	// region's cover ranges contributes exactly as a base row would.
	for k, dn := 0, snap.DeltaLen(); k < dn; k++ {
		if !snap.DeltaLive(k) || !coversKey(ranges, snap.DeltaKey(k)) {
			continue
		}
		cnt++
		if needs.sum || needs.min || needs.max {
			w := snap.DeltaWeight(k)
			if needs.sum {
				sum += w
			}
			if needs.min {
				mn = math.Min(mn, w)
			}
			if needs.max {
				mx = math.Max(mx, w)
			}
		}
	}
	regionAcc{cnt: cnt, sum: sum, mn: mn, mx: mx}.writeTo(results, ri)
}

// coversKey reports whether a leaf key falls in one of the merged, sorted
// cover ranges — binary search, mirroring Approximation.CoversLeafPos.
//
//distbound:noalloc
func coversKey(ranges []raster.PosRange, key uint64) bool {
	i := sort.Search(len(ranges), func(i int) bool { return ranges[i].Hi >= key })
	return i < len(ranges) && ranges[i].Lo <= key
}
