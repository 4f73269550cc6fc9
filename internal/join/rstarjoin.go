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
	refine []refiner
}

// refiner is the exact point-in-region test of one region.
type refiner interface{ ContainsPoint(geom.Point) bool }

// boundedRegion refines a region whose rings are not accessible: its MBR,
// then its own predicate — what the R*-tree's filter and refinement accept
// together.
type boundedRegion struct {
	geom.Region
	bounds geom.Rect
}

func (b boundedRegion) ContainsPoint(p geom.Point) bool {
	return b.bounds.ContainsPoint(p) && b.Region.ContainsPoint(p)
}

// refiners returns each region's exact test: a polygon's point locator (which
// checks the MBR first), any other region behind its MBR.
func refiners(regions []geom.Region) []refiner {
	out := make([]refiner, len(regions))
	for i, rg := range regions {
		out[i] = boundedRegion{rg, rg.Bounds()}
		if l := geom.NewPointLocator(rg); l != nil {
			out[i] = l
		}
	}
	return out
}

// NewRStarJoiner bulk-loads the region MBRs, as the Boost baseline does, and
// builds each polygon's point locator. fanout ≤ 3 selects the default.
func NewRStarJoiner(regions []geom.Region, fanout int) *RStarJoiner {
	items := make([]rstar.Item, len(regions))
	for i, rg := range regions {
		items[i] = rstar.Item{Rect: rg.Bounds(), ID: int32(i)}
	}
	return &RStarJoiner{tree: rstar.BulkLoad(items, fanout), refine: refiners(regions)}
}

// MemoryBytes returns the R-tree footprint plus the point locators'; the
// geometries are the caller's. (The paper counts the tree alone: 27.9 KB
// over Neighborhood MBRs.)
func (j *RStarJoiner) MemoryBytes() int {
	return j.tree.MemoryBytes() + locatorBytes(j.refine)
}

// locatorBytes is the point locators' footprint among rs.
func locatorBytes(rs []refiner) int {
	n := 0
	for _, r := range rs {
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
