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
// The package exposes the three system layers the paper describes:
//
//   - Data access (§3): geometries are rasterized ([HierarchicalRaster],
//     [CoverBudget]), cells linearized with a space-filling curve, and
//     indexed — polygons in an Adaptive Cell Trie ([PolygonIndex]), points
//     of a registered [Dataset] as sorted 1D curve keys.
//   - Query optimization (§4): the raster canvas algebra ([Blend],
//     [MaskCanvas]) that the Bounded Raster Join evaluates on.
//   - Query execution (§5): spatial aggregation joins, one per [Strategy] of
//     [Engine.Do] — exact, the approximate ACT join, the Bounded Raster Join
//     and the resident point index — plus result-range estimation (§6) via
//     [PolygonIndex.AggregateWithRange].
//
// Quick start:
//
//	idx, err := distbound.NewPolygonIndex(regions, 4 /* meters */)
//	region := idx.Lookup(distbound.Pt(x, y)) // no PIP test, error ≤ 4 m
//
// For serving workloads, [Engine.Do] is the one entry point: one [Request]
// carries a target (ad-hoc points or a registered dataset), a set of
// aggregates answered in a single pass, and a context whose cancellation
// unwinds the query promptly.
package distbound

import (
	"distbound/internal/canvas"
	"distbound/internal/geom"
	"distbound/internal/join"
	"distbound/internal/raster"
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
	// MultiPolygon is a region made of several polygons.
	MultiPolygon = geom.MultiPolygon
	// Region is the geometric interface shared by Polygon and MultiPolygon.
	Region = geom.Region
	// Segment is a closed line segment.
	Segment = geom.Segment

	// Domain maps a square of the plane onto the hierarchical grid.
	Domain = sfc.Domain
	// CellID is a 64-bit hierarchical grid-cell identifier.
	CellID = sfc.CellID
	// Curve enumerates grid cells (Morton or Hilbert).
	Curve = sfc.Curve

	// Approximation is a distance-bounded raster approximation.
	Approximation = raster.Approximation
	// PosRange is an inclusive range of fine-grained curve positions.
	PosRange = raster.PosRange

	// PointSet is the point relation of an aggregation join.
	PointSet = join.PointSet
	// Result holds per-region aggregates.
	Result = join.Result
	// Interval is a guaranteed enclosure of an exact aggregate (§6).
	Interval = join.Interval
	// Agg selects COUNT, SUM or AVG.
	Agg = join.Agg
	// ACTJoiner is the approximate aggregation join engine.
	ACTJoiner = join.ACTJoiner
	// BRJStats profiles a raster-join execution.
	BRJStats = join.BRJStats

	// Canvas is a window onto a global pixel lattice (§4).
	Canvas = canvas.Canvas
	// Grid fixes the pixel lattice of a canvas.
	Grid = canvas.Grid
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

// Hilbert and Morton are the available linearization curves; Hilbert is the
// default everywhere for its locality.
var (
	Hilbert Curve = sfc.Hilbert{}
	Morton  Curve = sfc.Morton{}
)

// HierarchicalRaster approximates a region with variable-sized cells
// guaranteeing a Hausdorff distance of at most eps (conservative: no false
// negatives).
//
//distbound:api the §3 approximation for library users; the engine builds its covers through internal/raster
func HierarchicalRaster(rg Region, d Domain, c Curve, eps float64) (*Approximation, error) {
	return raster.Hierarchical(rg, d, c, eps, raster.Conservative)
}

// CoverBudget approximates a region with at most maxCells cells; the
// achieved bound is Approximation.MaxCellDiagonal.
//
//distbound:api the budgeted cover for library users; the root benchmarks build covers with it
func CoverBudget(rg Region, d Domain, c Curve, maxCells int) *Approximation {
	return raster.CoverBudget(rg, d, c, maxCells)
}

// PolygonIndex answers approximate point-in-region queries over a region
// set: the §3 polygon-indexing pipeline (distance-bounded HR approximation →
// linearized cells → Adaptive Cell Trie) behind one type.
type PolygonIndex struct {
	joiner *join.ACTJoiner
}

// NewPolygonIndex builds the index with the given distance bound (meters,
// in the domain's unit). The domain is derived from the regions' extent.
func NewPolygonIndex(regions []Region, bound float64) (*PolygonIndex, error) {
	d := DomainForRegions(regions...)
	return NewPolygonIndexIn(regions, d, Hilbert, bound)
}

// NewPolygonIndexIn is NewPolygonIndex with an explicit domain and curve.
func NewPolygonIndexIn(regions []Region, d Domain, c Curve, bound float64) (*PolygonIndex, error) {
	j, err := join.NewACTJoiner(regions, d, c, bound, 0)
	if err != nil {
		return nil, err
	}
	return &PolygonIndex{joiner: j}, nil
}

// Lookup returns the index of a region whose ε-approximation contains p, or
// -1. Any mismatch with the exact answer is within the index's bound of a
// region boundary.
func (ix *PolygonIndex) Lookup(p Point) int { return ix.joiner.LookupPoint(p) }

// NumCells returns the number of indexed raster cells.
func (ix *PolygonIndex) NumCells() int { return ix.joiner.NumCells() }

// MemoryBytes returns the index footprint.
func (ix *PolygonIndex) MemoryBytes() int { return ix.joiner.MemoryBytes() }

// AggregateWithRange runs the approximate aggregation join (§5.1) and returns
// per-region result intervals (§6) for COUNT and SUM: [α − Σ⁺, α − Σ⁻], where
// Σ⁺ and Σ⁻ are the positive and negative weight the region's boundary cells
// matched. That is [α − ε_b, α]
// for COUNT and for SUM with non-negative weights; SUM's interval holds up to
// float rounding.
func (ix *PolygonIndex) AggregateWithRange(ps PointSet, agg Agg) (Result, []Interval, error) {
	return ix.joiner.AggregateWithRange(ps, agg)
}

// CanvasForRect allocates the smallest canvas covering r, for direct use of
// the §4 operator algebra (blend, mask).
func CanvasForRect(g Grid, r Rect) (*Canvas, error) { return canvas.CanvasForRect(g, r) }

// GridForBound returns a pixel lattice whose pixel diagonal equals eps.
func GridForBound(origin Point, eps float64) Grid { return canvas.GridForBound(origin, eps) }

// Blend merges src into dst with the blend function f (the ⊙ operator).
//
//distbound:api the §4 ⊙ operator for library users, beside MaskCanvas
func Blend(dst, src *Canvas, f canvas.BlendFunc) error { return canvas.Blend(dst, src, f) }

// Standard blend functions.
var (
	BlendAdd  = canvas.BlendAdd
	BlendMul  = canvas.BlendMul
	BlendMax  = canvas.BlendMax
	BlendMin  = canvas.BlendMin
	BlendOver = canvas.BlendOver
)

// MaskCanvas zeroes pixels of c whose mask value fails pred (the M
// operator).
func MaskCanvas(c, mask *Canvas, pred func(v float64) bool) error {
	return canvas.Mask(c, mask, pred)
}

// IntersectJoin returns every (left, right) index pair whose regions
// intersect up to the distance bound: a conservative region-region join
// evaluated purely on cell overlaps (§4), never missing a truly intersecting
// pair; any false pair is within 2·eps of touching.
func IntersectJoin(left, right []Region, eps float64) ([][2]int32, error) {
	all := append(append([]Region{}, left...), right...)
	d := DomainForRegions(all...)
	j, err := join.NewIntersectJoiner(left, right, d, Hilbert, eps)
	if err != nil {
		return nil, err
	}
	return j.Pairs(), nil
}

// RegionsIntersect is the exact region-region intersection test (the
// refinement IntersectJoin avoids).
func RegionsIntersect(a, b Region) bool { return geom.RegionsIntersect(a, b) }

// BruteForceJoin computes the exact aggregation by scanning every
// (point, region) pair; intended for validation at small scale.
func BruteForceJoin(ps PointSet, regions []Region, agg Agg) (Result, error) {
	return join.BruteForce(ps, regions, agg)
}
