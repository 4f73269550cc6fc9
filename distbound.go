// Package distbound is a library for distance-bounded approximate spatial
// query processing, reproducing "The Case for Distance-Bounded Spatial
// Approximations" (Tzirita Zacharatou et al., CIDR 2021).
//
// The core idea: approximate every geometry by a fine-grained raster (a set
// of grid cells) whose boundary cells have a diagonal of at most ε. Queries
// are then answered entirely on the approximation — no exact geometric test
// is ever executed — and every false or missing result is guaranteed to lie
// within ε of the true geometry's boundary (a Hausdorff-distance bound). ε
// is the user's knob for trading accuracy against performance.
//
// This package is the serving surface; the paper's three system layers live
// in the internal packages it drives:
//
//   - Data access (§3): internal/raster rasterizes regions into
//     distance-bounded covers, internal/sfc linearizes cells on a
//     space-filling curve, and polygons are indexed in an Adaptive Cell Trie
//     (join.ACTJoiner over internal/act) — points of a registered [Dataset]
//     as sorted 1D curve keys.
//   - Query optimization (§4): internal/canvas holds the raster canvas
//     algebra (blend, mask) that the Bounded Raster Join evaluates on.
//   - Query execution (§5): internal/join's spatial aggregation joins, one
//     per [Strategy] of [Engine.Do] — exact, the approximate ACT join, the
//     Bounded Raster Join and the resident point index. Result-range
//     estimation (§6) is join.ACTJoiner.AggregateWithRange.
//
// Quick start: [Engine.Do] is the one entry point. One [Request] carries a
// target (ad-hoc points or a registered dataset), a set of aggregates
// answered in a single pass, and a context whose cancellation unwinds the
// query promptly:
//
//	resp, err := distbound.NewEngine(regions).Do(ctx, distbound.Request{
//		Points: distbound.PointSet{Pts: pts},
//		Aggs:   []distbound.Agg{distbound.Count},
//		Bound:  4, // meters: every miscounted point is within 4 m of a boundary
//	})
package distbound

import (
	"distbound/internal/geom"
	"distbound/internal/join"
	"distbound/internal/sfc"
)

// Re-exported geometry types. These aliases make the internal packages'
// types part of the public API surface.
type (
	// Point is a 2D location.
	Point = geom.Point
	// Rect is an axis-aligned rectangle (also the MBR approximation).
	Rect = geom.Rect
	// Ring is a closed polygonal chain without the repeated end vertex.
	Ring = geom.Ring
	// Polygon is a simple polygon with optional holes.
	Polygon = geom.Polygon
	// Region is the geometric interface every region type implements.
	Region = geom.Region

	// Domain maps a square of the plane onto the hierarchical grid.
	Domain = sfc.Domain
	// Curve enumerates grid cells along a space-filling curve.
	Curve = sfc.Curve

	// PointSet is the point relation of an aggregation join.
	PointSet = join.PointSet
	// Result holds per-region aggregates.
	Result = join.Result
	// Agg selects COUNT, SUM, AVG, MIN or MAX.
	Agg = join.Agg
)

// Aggregation functions. All are distributive or algebraic and therefore
// decompose over cells and canvas pixels (§2.3); the raster join supports
// COUNT/SUM/AVG, the index joins additionally MIN/MAX.
const (
	Count = join.Count
	Sum   = join.Sum
	Avg   = join.Avg
	Min   = join.Min
	Max   = join.Max
)

// MaxLevel is the finest grid level (cells at level L have side
// domainSize/2^L).
const MaxLevel = sfc.MaxLevel

// Pt returns Point{x, y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewPolygon builds a polygon from an outer ring and optional holes.
func NewPolygon(outer Ring, holes ...Ring) (*Polygon, error) {
	return geom.NewPolygon(outer, holes...)
}

// DomainForRegions returns the smallest square domain covering all regions,
// slightly expanded so boundary coordinates map strictly inside.
func DomainForRegions(regions ...Region) Domain {
	b := geom.EmptyRect()
	for _, r := range regions {
		b = b.Union(r.Bounds())
	}
	return sfc.DomainForRect(b)
}

// Hilbert is the linearization curve the engine uses everywhere, for its
// locality.
var Hilbert Curve = sfc.Hilbert{}

// BruteForceJoin computes the exact aggregation by scanning every
// (point, region) pair; intended for validation at small scale.
func BruteForceJoin(ps PointSet, regions []Region, agg Agg) (Result, error) {
	return join.BruteForce(ps, regions, agg)
}
