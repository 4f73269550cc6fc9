package join

import (
	"context"

	"distbound/internal/geom"
	"distbound/internal/index/rstar"
)

// RStarJoiner is the exact filter-and-refine baseline of §5.1: region MBRs
// are indexed in a bulk-loaded R*-tree; each point is filtered against the
// MBRs and refined with an exact point-in-polygon test whose cost is linear
// in the region's vertex count — the CPU work the paper sets out to
// eliminate. Complex polygons (Boroughs) make the refinement dominate.
type RStarJoiner struct {
	tree    *rstar.Tree
	regions []geom.Region
}

// NewRStarJoiner indexes the region MBRs (bulk-loading mode, like the Boost
// baseline). fanout ≤ 3 selects the default.
func NewRStarJoiner(regions []geom.Region, fanout int) *RStarJoiner {
	items := make([]rstar.Item, len(regions))
	for i, rg := range regions {
		items[i] = rstar.Item{Rect: rg.Bounds(), ID: int32(i)}
	}
	return &RStarJoiner{tree: rstar.BulkLoad(items, fanout), regions: regions}
}

// MemoryBytes returns the R-tree footprint (the geometries themselves are
// shared with the caller, as in the paper's accounting where the R*-tree
// over Neighborhood MBRs is just 27.9 KB).
func (j *RStarJoiner) MemoryBytes() int { return j.tree.MemoryBytes() }

// Aggregate runs the exact index-nested-loop join with aggregation fused:
// the single-aggregate, single-worker form of AggregateMulti.
//
//distbound:allow-background context-free convenience over AggregateMulti; callers hold no context to thread
func (j *RStarJoiner) Aggregate(ps PointSet, agg Agg) (Result, error) {
	rs, err := j.AggregateMulti(context.Background(), ps, []Agg{agg}, 1)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// FilterCount returns how many (point, region) MBR candidate pairs the
// filter step produces — instrumentation for explaining the performance gap.
func (j *RStarJoiner) FilterCount(ps PointSet) int64 {
	var n int64
	for _, p := range ps.Pts {
		j.tree.SearchPoint(p, func(rstar.Item) bool { n++; return true })
	}
	return n
}
