package join

import (
	"context"

	"distbound/internal/geom"
	"distbound/internal/index/rstar"
)

// RStarJoiner is the exact filter-and-refine join of §5.1: region MBRs are
// indexed in a bulk-loaded R*-tree; each point is filtered against the MBRs
// and refined with an exact point-in-region test — for a polygon, through its
// geom.PointLocator, which reads only the edges whose Y extent holds the
// point, where the paper's Boost baseline runs a PIP linear in vertex count.
type RStarJoiner struct {
	tree   *rstar.Tree
	refine []interface{ ContainsPoint(geom.Point) bool } // a region's locator, else the region
}

// NewRStarJoiner bulk-loads the region MBRs, as the Boost baseline does, and
// builds each polygon's point locator. fanout ≤ 3 selects the default.
func NewRStarJoiner(regions []geom.Region, fanout int) *RStarJoiner {
	items := make([]rstar.Item, len(regions))
	refine := make([]interface{ ContainsPoint(geom.Point) bool }, len(regions))
	for i, rg := range regions {
		items[i] = rstar.Item{Rect: rg.Bounds(), ID: int32(i)}
		refine[i] = rg
		if l := geom.NewPointLocator(rg); l != nil {
			refine[i] = l
		}
	}
	return &RStarJoiner{tree: rstar.BulkLoad(items, fanout), refine: refine}
}

// MemoryBytes returns the R-tree footprint plus the point locators'; the
// geometries are the caller's. (The paper counts the tree alone: 27.9 KB
// over Neighborhood MBRs.)
func (j *RStarJoiner) MemoryBytes() int {
	n := j.tree.MemoryBytes()
	for _, r := range j.refine {
		if l, ok := r.(*geom.PointLocator); ok {
			n += l.MemoryBytes()
		}
	}
	return n
}

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
