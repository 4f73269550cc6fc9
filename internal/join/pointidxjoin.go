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
	"distbound/internal/sfc"
)

// CoverSet is the immutable, data-independent half of the resident §5 join:
// every region covered once by its conservative distance-bounded hierarchical
// raster, kept as merged 1D leaf ranges, plus the global cover plan derived
// from them (coverplan.go). It depends only on the regions, domain, curve and
// bound — never on the points — so one set serves every dataset linearized
// over that domain and curve, across all their appends, deletes and
// compactions. Attach pairs it with a dataset.
type CoverSet struct {
	covers [][]raster.PosRange // merged leaf ranges per region
	bound  float64
	ranges int
	plan   *coverPlan
}

// NewCoverSetCtx rasterizes every region at distance bound eps over the
// domain and curve, fanning the per-region rasterization across workers (≤ 0
// selects GOMAXPROCS), and builds the global cover plan. Canceling ctx
// abandons the rasterization between regions and returns ctx.Err(), so a
// build nobody waits for anymore stops burning CPU.
func NewCoverSetCtx(ctx context.Context, regions []geom.Region, d sfc.Domain, c sfc.Curve, eps float64, workers int) (*CoverSet, error) {
	if !(eps > 0) {
		return nil, fmt.Errorf("join: point-index join requires a positive bound, got %v", eps)
	}
	cs := &CoverSet{covers: make([][]raster.PosRange, len(regions)), bound: eps}
	err := pool.RunCtx(ctx, len(regions), pool.Workers(workers, len(regions)), func(_, ri int) error {
		a, err := raster.Hierarchical(regions[ri], d, c, eps, raster.Conservative)
		if err != nil {
			return err
		}
		cs.covers[ri] = a.Ranges()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, rs := range cs.covers {
		cs.ranges += len(rs)
	}
	cs.plan = buildCoverPlan(cs.covers)
	return cs, nil
}

// Attach returns a joiner over src sharing this set read-only, with no state
// published yet. src must be linearized over the set's domain and curve.
func (cs *CoverSet) Attach(src *pointstore.Mutable) *PointIdxJoiner {
	j := &PointIdxJoiner{CoverSet: cs, src: src}
	hasW := src.HasWeights()
	j.scratch.New = func() any { return cs.plan.newScratch(hasW) }
	return j
}

// Bound returns the distance bound the covers guarantee.
func (cs *CoverSet) Bound() float64 { return cs.bound }

// NumRanges returns the total number of per-region merged cover ranges —
// what the per-region reference execution probes.
func (cs *CoverSet) NumRanges() int { return cs.ranges }

// NumUniqueRanges returns the size of the deduplicated global range list —
// what the cover-plan execution probes.
func (cs *CoverSet) NumUniqueRanges() int { return len(cs.plan.uniq) }

// NumBoundaryProbes returns how many distinct span boundaries one query
// resolves against the key column — the monotone sweep's length.
func (cs *CoverSet) NumBoundaryProbes() int { return len(cs.plan.bkeys) }

// UniqueRanges returns the cover plan's deduplicated global range list,
// sorted by (Lo, Hi) ascending — the key intervals a query at this bound can
// ever touch, which is what a shard router intersects against its shards'
// key boundaries. The slice is the plan's own backing storage; callers must
// treat it as read-only.
func (cs *CoverSet) UniqueRanges() []raster.PosRange { return cs.plan.uniq }

// MemoryBytes returns the set's footprint: the per-region ranges (16 bytes
// each) and the global cover plan.
func (cs *CoverSet) MemoryBytes() int { return 16*cs.ranges + cs.plan.memoryBytes() }

// PointIdxJoiner answers the §5 aggregation join against a resident point
// dataset instead of a streamed PointSet: one dataset's state over a shared
// CoverSet. The point side is a pointstore.Mutable — an SFC-sorted base
// column under a RadixSpline learned index with prefix-sum and block min/max
// columns, plus an unsorted delta tail and tombstone set for points appended
// or deleted since the last compaction.
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
type PointIdxJoiner struct {
	*CoverSet
	src *pointstore.Mutable

	// spans publishes the plan's current span resolution against src — shared
	// by every query against one base, re-resolved incrementally when a
	// compaction installs a new one. base and delta publish the two halves
	// of the current answer the same way: the per-region fold of the base
	// rows, refilled when a delete or compaction changes them, and the
	// per-region delta accumulators up to a watermark, extended as the tail
	// grows. scratch recycles the fill's per-range workspace.
	spans   atomic.Pointer[resolvedSpans]
	base    atomic.Pointer[basePartials]
	delta   atomic.Pointer[deltaPartials]
	scratch sync.Pool
}

// NewPointIdxJoiner builds a cover set over the dataset's domain and curve
// and attaches the dataset to it — the one-dataset convenience over
// NewCoverSetCtx and Attach. The returned joiner is safe for concurrent use;
// it reads a fresh snapshot of the dataset on every Aggregate call.
//
//distbound:allow-background context-free convenience over NewCoverSetCtx; callers hold no context to thread
func NewPointIdxJoiner(regions []geom.Region, src *pointstore.Mutable, eps float64, workers int) (*PointIdxJoiner, error) {
	cs, err := NewCoverSetCtx(context.Background(), regions, src.Domain(), src.Curve(), eps, workers)
	if err != nil {
		return nil, err
	}
	return cs.Attach(src), nil
}

// MemoryBytes returns this dataset's state over the cover set — whichever of
// the span resolution and the per-region partials (32 bytes a region each)
// are published — excluding the shared CoverSet and the dataset.
func (j *PointIdxJoiner) MemoryBytes() int {
	n := 0
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

// DropPartials discards the published base partials and delta accumulators,
// so the next query recomputes both from nothing — the re-execution the
// incremental state is differentially tested against, and what a benchmark
// comparing cold and warm executions must time.
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
// index over the region's cover ranges: the single-aggregate, single-worker
// form of AggregateMulti.
//
//distbound:allow-background context-free convenience over AggregateMulti; callers hold no context to thread
func (j *PointIdxJoiner) Aggregate(agg Agg) (Result, error) {
	rs, err := j.AggregateMulti(context.Background(), []Agg{agg}, 1)
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
