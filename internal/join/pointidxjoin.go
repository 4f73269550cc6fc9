package join

import (
	"context"
	"fmt"
	"sync/atomic"

	"distbound/internal/geom"
	"distbound/internal/pointstore"
	"distbound/internal/raster"
	"distbound/internal/sfc"
)

// CoverSet is the immutable, data-independent half of the resident §5 join:
// every region covered once by its conservative distance-bounded hierarchical
// raster, its merged 1D leaf ranges kept as the cover table (coverplan.go).
// It depends only on the regions, domain, curve and level — never on the
// points — so one set serves every dataset linearized over that domain and
// curve, across all their appends, deletes and compactions. Attach pairs it
// with a dataset; AggregateMulti joins a streamed point set through it.
type CoverSet struct {
	domain sfc.Domain
	curve  sfc.Curve
	plan   *coverPlan
}

// NewCoverSetCtx rasterizes the regions down to the boundary-cell level
// (raster.BoundLevel of the bound) over the domain and curve in one set
// descent (raster.CoverRanges): each cell is classified once for every region
// that meets it, the subtrees below the split level run on workers (≤ 0
// selects GOMAXPROCS), and each region's ranges go straight from the
// descent's pieces into the cover table, with no cell list and no per-region
// range list. Canceling ctx abandons the descent and returns ctx.Err(), so a
// build nobody waits for anymore stops burning CPU.
func NewCoverSetCtx(ctx context.Context, regions []geom.Region, d sfc.Domain, c sfc.Curve, level, workers int) (*CoverSet, error) {
	covers, err := raster.CoverRanges(ctx, regions, d, c, level, false, workers)
	if err != nil {
		return nil, err
	}
	return &CoverSet{domain: d, curve: c, plan: buildCoverPlan(covers)}, nil
}

// Attach returns a joiner over src sharing this set read-only, with no state
// published yet. src must be linearized over the set's domain and curve.
func (cs *CoverSet) Attach(src *pointstore.Mutable) *PointIdxJoiner {
	return &PointIdxJoiner{CoverSet: cs, src: src}
}

// NumRegions returns how many regions the set covers — the length of every
// result column.
func (cs *CoverSet) NumRegions() int { return len(cs.plan.regOff) - 1 }

// NumRanges returns the total number of per-region merged cover ranges —
// what a base fill probes.
func (cs *CoverSet) NumRanges() int { return len(cs.plan.ranges) }

// MemoryBytes returns the cover table's footprint.
func (cs *CoverSet) MemoryBytes() int { return cs.plan.memoryBytes() }

// PointIdxJoiner answers the §5 aggregation join against a resident point
// dataset instead of a streamed PointSet: one dataset's state over a shared
// CoverSet. The point side is a pointstore.Mutable — an SFC-sorted base key
// column with per-block sum/min/max columns, plus an unsorted delta
// tail and tombstone set for points appended or deleted since the last
// compaction.
//
// A query loads one immutable snapshot of the dataset and answers from the
// cover table (coverplan.go): per region, the base's range aggregates folded
// over the region's cover ranges (tombstoned rows skipped), plus the delta
// tail's rows fanned out to the regions covering their keys. The result is
// therefore exactly what a freshly compacted store would return:
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

	// base and delta publish the two halves of the current answer: the
	// per-region fold of the base rows with the span resolution it was
	// folded from, refilled when a delete or compaction changes the rows and
	// re-resolved only when a compaction installs a new base, and the
	// per-region delta accumulators up to a watermark, extended as the tail
	// grows.
	base  atomic.Pointer[basePartials]
	delta atomic.Pointer[deltaPartials]
}

// NewPointIdxJoiner builds a cover set at the positive bound eps's level over
// the dataset's domain and curve and attaches the dataset to it — the
// one-dataset convenience over NewCoverSetCtx and Attach. The returned joiner
// is safe for concurrent use; it reads a fresh snapshot of the dataset on
// every AggregateMultiInto call.
//
//distbound:allow-background context-free convenience over NewCoverSetCtx; callers hold no context to thread
func NewPointIdxJoiner(regions []geom.Region, src *pointstore.Mutable, eps float64, workers int) (*PointIdxJoiner, error) {
	if !(eps > 0) {
		return nil, fmt.Errorf("join: point-index join requires a positive bound, got %v", eps)
	}
	level, err := raster.BoundLevel(src.Domain(), eps)
	if err != nil {
		return nil, err
	}
	cs, err := NewCoverSetCtx(context.Background(), regions, src.Domain(), src.Curve(), level, workers)
	if err != nil {
		return nil, err
	}
	return cs.Attach(src), nil
}

// MemoryBytes returns this dataset's state over the cover set — whichever of
// the per-region partials (8 bytes a region per held column: counts, plus the
// three weight columns once the weight pass ran) are published, and the base
// partials' span resolution (8 bytes a cover range) — excluding the shared
// CoverSet and the dataset.
func (j *PointIdxJoiner) MemoryBytes() int {
	n := 0
	if bp := j.base.Load(); bp != nil {
		n += 4*(len(bp.spanLo)+len(bp.spanHi)) + bp.acc.memoryBytes()
	}
	if dp := j.delta.Load(); dp != nil {
		n += dp.acc.memoryBytes()
	}
	return n
}

// Refresh brings the published base partials and their spans up to the
// dataset's current snapshot, keeping the weight pass when the partials it
// replaces had one. A background compaction calls it right after publishing
// its new base, so the refill happens on the compaction's goroutine instead
// of inside the first query to arrive afterwards. A joiner no query has touched
// has nothing to keep warm and is left alone.
func (j *PointIdxJoiner) Refresh(ctx context.Context, workers int) error {
	cur := j.base.Load()
	snap := j.src.Snapshot()
	if cur == nil || cur.serves(snap, cur.weighted()) {
		return nil
	}
	_, err := j.fillBase(ctx, snap, cur.weighted(), workers)
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
