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
//     as sorted 1D keys under a RadixSpline learned index ([PointIndex]).
//   - Query optimization (§4): the raster canvas algebra (blend / mask /
//     translate) in the internal canvas engine, surfaced via [RasterJoin].
//   - Query execution (§5): spatial aggregation joins — the approximate
//     [ACTJoin], the exact [ExactJoin], and the canvas-based [RasterJoin] —
//     plus result-range estimation (§6) via [ACTJoiner.AggregateWithRange].
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
	"fmt"

	"distbound/internal/canvas"
	"distbound/internal/geom"
	"distbound/internal/join"
	"distbound/internal/pointstore"
	"distbound/internal/raster"
	"distbound/internal/rs"
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

// NewMultiPolygon builds a multi-part region.
func NewMultiPolygon(parts ...*Polygon) *MultiPolygon { return geom.NewMultiPolygon(parts...) }

// NewDomain returns a Domain covering the given square.
func NewDomain(origin Point, size float64) (Domain, error) { return sfc.NewDomain(origin, size) }

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

// ParseWKT parses a POINT, POLYGON or MULTIPOLYGON.
func ParseWKT(s string) (any, error) { return geom.ParseWKT(s) }

// PolygonWKT renders a polygon as WKT.
func PolygonWKT(p *Polygon) string { return geom.PolygonWKT(p) }

// HierarchicalRaster approximates a region with variable-sized cells
// guaranteeing a Hausdorff distance of at most eps (conservative: no false
// negatives).
func HierarchicalRaster(rg Region, d Domain, c Curve, eps float64) (*Approximation, error) {
	return raster.Hierarchical(rg, d, c, eps, raster.Conservative)
}

// UniformRaster approximates a region with equal-sized cells at the given
// grid level: the cells HierarchicalRaster would emit with that level as its
// finest, every interior one written out at the level. Cells are closed, so
// an edge lying exactly on a grid line touches the cells on both sides.
func UniformRaster(rg Region, d Domain, c Curve, level int) *Approximation {
	return raster.Uniform(rg, d, c, level, raster.Conservative)
}

// CoverBudget approximates a region with at most maxCells cells; the
// achieved bound is Approximation.MaxCellDiagonal.
func CoverBudget(rg Region, d Domain, c Curve, maxCells int) *Approximation {
	return raster.CoverBudget(rg, d, c, maxCells)
}

// EncodeApproximation serializes an approximation to a compact binary form
// (grouped-by-level, delta-encoded cell positions), so covers computed
// offline can be stored and shipped to query nodes.
func EncodeApproximation(a *Approximation) []byte { return a.Encode() }

// DecodeApproximation reconstructs an approximation serialized by
// EncodeApproximation.
func DecodeApproximation(data []byte) (*Approximation, error) { return raster.Decode(data) }

// ApproximationsIntersect reports whether two approximations share a cell:
// the geometry-independent intersection test of §4. A false result proves
// the underlying regions disjoint (for conservative approximations); a true
// result means they are within the sum of the two bounds of intersecting.
func ApproximationsIntersect(a, b *Approximation) bool { return raster.Intersects(a, b) }

// OverlapArea returns the ε-accurate intersection area of two
// approximations over the same domain.
func OverlapArea(a, b *Approximation) float64 { return raster.OverlapArea(a, b) }

// PolygonIndex answers approximate point-in-region queries over a region
// set: the §3 polygon-indexing pipeline (distance-bounded HR approximation →
// linearized cells → Adaptive Cell Trie) behind one type.
type PolygonIndex struct {
	joiner *join.ACTJoiner
	domain Domain
	curve  Curve
	bound  float64
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
	return &PolygonIndex{joiner: j, domain: d, curve: c, bound: bound}, nil
}

// Lookup returns the index of a region whose ε-approximation contains p, or
// -1. Any mismatch with the exact answer is within Bound() of a region
// boundary.
func (ix *PolygonIndex) Lookup(p Point) int { return ix.joiner.LookupPoint(p) }

// Bound returns the index's distance bound.
func (ix *PolygonIndex) Bound() float64 { return ix.bound }

// NumCells returns the number of indexed raster cells.
func (ix *PolygonIndex) NumCells() int { return ix.joiner.NumCells() }

// MemoryBytes returns the index footprint.
func (ix *PolygonIndex) MemoryBytes() int { return ix.joiner.MemoryBytes() }

// Joiner exposes the underlying aggregation joiner.
func (ix *PolygonIndex) Joiner() *ACTJoiner { return ix.joiner }

// Aggregate runs the approximate aggregation join (§5.1).
func (ix *PolygonIndex) Aggregate(ps PointSet, agg Agg) (Result, error) {
	return ix.joiner.Aggregate(ps, agg)
}

// AggregateWithRange additionally returns per-region result intervals (§6)
// for COUNT and SUM: [α − Σ⁺, α − Σ⁻], where Σ⁺ and Σ⁻ are the positive and
// negative weight the region's boundary cells matched. That is [α − ε_b, α]
// for COUNT and for SUM with non-negative weights; SUM's interval holds up to
// float rounding.
func (ix *PolygonIndex) AggregateWithRange(ps PointSet, agg Agg) (Result, []Interval, error) {
	return ix.joiner.AggregateWithRange(ps, agg)
}

// PointIndex answers approximate containment aggregations over a point set:
// the §3 point-indexing pipeline (points → linearized 1D keys → RadixSpline
// learned index). Queries are arbitrary regions approximated on the fly with
// a budgeted cover.
type PointIndex struct {
	keys   []uint64
	index  *rs.RadixSpline
	domain Domain
	curve  Curve
}

// NewPointIndex linearizes and indexes the points over the given domain. It
// is an error for any point to lie outside the domain: clamping such points
// onto border cells would let arbitrarily distant points be counted in
// regions touching the border, silently voiding the distance-bound
// guarantee. Grow the domain (DomainForRegions of the data extent) or
// filter the points first.
func NewPointIndex(pts []Point, d Domain, c Curve) (*PointIndex, error) {
	keys, _ := pointstore.SortedKeys(pts, d, c)
	if n := len(pts) - len(keys); n > 0 {
		return nil, fmt.Errorf("distbound: %d of %d points lie outside the domain (origin %v, size %g)",
			n, len(pts), d.Origin, d.Size)
	}
	return &PointIndex{
		keys:   keys,
		index:  rs.Build(keys, rs.DefaultRadixBits, rs.DefaultSplineError),
		domain: d,
		curve:  c,
	}, nil
}

// Len returns the number of indexed points.
func (ix *PointIndex) Len() int { return len(ix.keys) }

// CountIn returns the approximate number of points inside the region, using
// a conservative cover with maxCells cells (more cells → tighter bound,
// never an undercount). The achieved distance bound is also returned.
func (ix *PointIndex) CountIn(rg Region, maxCells int) (count int, bound float64) {
	a := raster.CoverBudget(rg, ix.domain, ix.curve, maxCells)
	return ix.CountApprox(a), a.MaxCellDiagonal()
}

// CountApprox counts the points covered by a prebuilt approximation.
func (ix *PointIndex) CountApprox(a *Approximation) int {
	n := 0
	for _, r := range a.Ranges() {
		n += ix.index.CountRange(r.Lo, r.Hi)
	}
	return n
}

// MemoryBytes returns the key column plus learned-index footprint.
func (ix *PointIndex) MemoryBytes() int { return 8*len(ix.keys) + ix.index.MemoryBytes() }

// ACTJoin is the one-shot form of the approximate aggregation join of §5.1:
// COUNT/SUM/AVG of points per region with distance bound eps and no exact
// geometric tests.
func ACTJoin(ps PointSet, regions []Region, eps float64, agg Agg) (Result, error) {
	d := DomainForRegions(regions...)
	j, err := join.NewACTJoiner(regions, d, Hilbert, eps, 0)
	if err != nil {
		return Result{}, err
	}
	return j.Aggregate(ps, agg)
}

// ExactJoin computes the exact aggregation with the classic
// filter-and-refine strategy (R*-tree over MBRs plus PIP refinement).
func ExactJoin(ps PointSet, regions []Region, agg Agg) (Result, error) {
	return join.NewRStarJoiner(regions, 0).Aggregate(ps, agg)
}

// RasterJoin runs the Bounded Raster Join (§5.2) over the extent covering
// all regions: points and regions are rasterized onto canvases with pixel
// diagonal eps and aggregated per pixel.
func RasterJoin(ps PointSet, regions []Region, eps float64, agg Agg) (Result, BRJStats, error) {
	b := geom.EmptyRect()
	for _, r := range regions {
		b = b.Union(r.Bounds())
	}
	for _, p := range ps.Pts {
		b = b.ExtendPoint(p)
	}
	return join.BRJ{Bound: eps, Bounds: b}.Run(ps, regions, agg)
}

// NewCanvas allocates a canvas window for direct use of the §4 operator
// algebra (blend, mask, translate, render).
func NewCanvas(g Grid, x0, y0, w, h int) (*Canvas, error) { return canvas.NewCanvas(g, x0, y0, w, h) }

// CanvasForRect allocates the smallest canvas covering r.
func CanvasForRect(g Grid, r Rect) (*Canvas, error) { return canvas.CanvasForRect(g, r) }

// GridForBound returns a pixel lattice whose pixel diagonal equals eps.
func GridForBound(origin Point, eps float64) Grid { return canvas.GridForBound(origin, eps) }

// Blend merges src into dst with the blend function f (the ⊙ operator).
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

// MedianRelativeError compares an approximate against an exact result — the
// accuracy metric of Figure 7.
func MedianRelativeError(approx, exact Result) float64 {
	return join.MedianRelativeError(approx, exact)
}
