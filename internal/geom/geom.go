// Package geom provides planar geometric primitives and predicates used by
// every other layer of the system: points, segments, rectangles, polygons
// with holes, and the exact tests (point-in-polygon, segment intersection)
// that distance-bounded approximations are designed to avoid at query time.
//
// All coordinates are float64 in an arbitrary planar unit (the synthetic
// workloads use meters). Predicates follow the usual database convention
// that boundaries are inclusive: a point on a polygon edge is contained.
package geom

import (
	"cmp"
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q component-wise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q component-wise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product p · q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Eq reports whether p and q have identical coordinates.
func (p Point) Eq(q Point) bool { return p.X == q.X && p.Y == q.Y }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g, %g)", p.X, p.Y) }

// Segment is a closed line segment between A and B.
type Segment struct {
	A, B Point
}

// Length returns the segment length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Midpoint returns the segment midpoint.
//
//distbound:oracle the R*-tree tests probe edge midpoints
func (s Segment) Midpoint() Point {
	return Point{(s.A.X + s.B.X) / 2, (s.A.Y + s.B.Y) / 2}
}

// Bounds returns the minimal Rect enclosing the segment.
func (s Segment) Bounds() Rect {
	return Rect{
		Min: Point{min(s.A.X, s.B.X), min(s.A.Y, s.B.Y)},
		Max: Point{max(s.A.X, s.B.X), max(s.A.Y, s.B.Y)},
	}
}

// Canonical returns the segment with its endpoints in ascending order, by X
// and then Y (cmp.Compare's order, NaN first): a segment and its reverse have
// one canonical form, so a predicate evaluated on it cannot depend on which
// way a ring traverses the edge.
func (s Segment) Canonical() Segment {
	if c := cmp.Compare(s.B.X, s.A.X); c < 0 || (c == 0 && cmp.Compare(s.B.Y, s.A.Y) < 0) {
		return Segment{s.B, s.A}
	}
	return s
}

// Side returns the side of the segment's line p lies on, as seen walking
// from A to B: +1 left (counter-clockwise), -1 right, 0 on the line.
func (s Segment) Side(p Point) int { return orient(s.A, s.B, p) }

// orientation classification for three points.
const (
	collinear        = 0
	clockwise        = -1
	counterclockwise = 1
)

// orient returns the orientation of the triple (a, b, c):
// +1 counter-clockwise, -1 clockwise, 0 collinear.
func orient(a, b, c Point) int {
	return orientation((b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X))
}

// orientation classifies orient's determinant v by its sign (NaN: collinear).
func orientation(v float64) int {
	switch {
	case v > 0:
		return counterclockwise
	case v < 0:
		return clockwise
	default:
		return collinear
	}
}

// onSegment reports whether c, known to be collinear with segment (a, b),
// lies on the closed segment.
func onSegment(a, b, c Point) bool {
	return math.Min(a.X, b.X) <= c.X && c.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= c.Y && c.Y <= math.Max(a.Y, b.Y)
}

// Intersects reports whether segments s and t share at least one point,
// including touching endpoints and collinear overlap.
//
//distbound:oracle the four-sides references for Rect.IntersectsSegment in the geom and raster tests meet the rect's sides with it
func (s Segment) Intersects(t Segment) bool {
	o1 := orient(s.A, s.B, t.A)
	o2 := orient(s.A, s.B, t.B)
	o3 := orient(t.A, t.B, s.A)
	o4 := orient(t.A, t.B, s.B)
	if o1 != o2 && o3 != o4 {
		return true
	}
	if o1 == collinear && onSegment(s.A, s.B, t.A) {
		return true
	}
	if o2 == collinear && onSegment(s.A, s.B, t.B) {
		return true
	}
	if o3 == collinear && onSegment(t.A, t.B, s.A) {
		return true
	}
	if o4 == collinear && onSegment(t.A, t.B, s.B) {
		return true
	}
	return false
}

// ClosestPoint returns the point on the closed segment nearest to p.
func (s Segment) ClosestPoint(p Point) Point {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 == 0 {
		return s.A
	}
	t := p.Sub(s.A).Dot(d) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return s.A.Add(d.Scale(t))
}

// DistToPoint returns the distance from p to the closed segment.
func (s Segment) DistToPoint(p Point) float64 {
	return p.Dist(s.ClosestPoint(p))
}

// Rect is an axis-aligned rectangle; Min is the lower-left corner and Max the
// upper-right corner. A Rect with Min == Max is a degenerate point rectangle.
// Rect doubles as the Minimum Bounding Rectangle (MBR) approximation.
type Rect struct {
	Min, Max Point
}

// EmptyRect returns the identity element for Union: a rect that contains
// nothing and unions to the other operand.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{Min: Point{inf, inf}, Max: Point{-inf, -inf}}
}

// RectFromPoints returns the minimal rect containing all pts.
func RectFromPoints(pts ...Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.ExtendPoint(p)
	}
	return r
}

// IsEmpty reports whether the rect contains no points.
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the rect area (0 for empty or degenerate rects).
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.Width() * r.Height()
}

// Center returns the rect center point.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Corners returns the four corners in counter-clockwise order starting at Min.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
}

// Edges returns the four boundary segments.
func (r Rect) Edges() [4]Segment {
	c := r.Corners()
	return [4]Segment{
		{c[0], c[1]}, {c[1], c[2]}, {c[2], c[3]}, {c[3], c[0]},
	}
}

// ContainsPoint reports whether p lies in the closed rect.
func (r Rect) ContainsPoint(p Point) bool {
	return r.Min.X <= p.X && p.X <= r.Max.X && r.Min.Y <= p.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether o lies entirely within r (closed).
//
//distbound:oracle tests check that bounding rectangles cover their contents with it
func (r Rect) ContainsRect(o Rect) bool {
	if o.IsEmpty() {
		return true
	}
	return r.Min.X <= o.Min.X && o.Max.X <= r.Max.X &&
		r.Min.Y <= o.Min.Y && o.Max.Y <= r.Max.Y
}

// Intersects reports whether r and o share at least one point (closed rects).
func (r Rect) Intersects(o Rect) bool {
	if r.IsEmpty() || o.IsEmpty() {
		return false
	}
	return r.Min.X <= o.Max.X && o.Min.X <= r.Max.X &&
		r.Min.Y <= o.Max.Y && o.Min.Y <= r.Max.Y
}

// Intersection returns the overlap of r and o, which may be empty.
func (r Rect) Intersection(o Rect) Rect {
	out := Rect{
		Min: Point{math.Max(r.Min.X, o.Min.X), math.Max(r.Min.Y, o.Min.Y)},
		Max: Point{math.Min(r.Max.X, o.Max.X), math.Min(r.Max.Y, o.Max.Y)},
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// Union returns the minimal rect containing both r and o.
func (r Rect) Union(o Rect) Rect {
	if r.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, o.Min.X), math.Min(r.Min.Y, o.Min.Y)},
		Max: Point{math.Max(r.Max.X, o.Max.X), math.Max(r.Max.Y, o.Max.Y)},
	}
}

// ExtendPoint returns the minimal rect containing r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	if r.IsEmpty() {
		return Rect{Min: p, Max: p}
	}
	return Rect{
		Min: Point{math.Min(r.Min.X, p.X), math.Min(r.Min.Y, p.Y)},
		Max: Point{math.Max(r.Max.X, p.X), math.Max(r.Max.Y, p.Y)},
	}
}

// Expand grows the rect by m on every side (shrinks for negative m).
func (r Rect) Expand(m float64) Rect {
	out := Rect{
		Min: Point{r.Min.X - m, r.Min.Y - m},
		Max: Point{r.Max.X + m, r.Max.Y + m},
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// DistToPoint returns the distance from p to the closed rect
// (0 if p is inside).
func (r Rect) DistToPoint(p Point) float64 {
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}

// IntersectsSegment reports whether the closed rect shares at least one point
// with segment s. A segment entirely inside the rect intersects it.
//
// It is the separating-axis test of two convex sets: they are disjoint
// exactly when their projections onto one of the rect's two axes or the
// segment's normal do not overlap. The bounds check projects onto the rect's
// axes; the segment's normal separates them exactly when all four corners lie
// strictly on one side of the segment's line.
//
// The answer does not depend on the order of s's endpoints: orient is plain
// float arithmetic and not exactly antisymmetric, so the test runs on the
// canonical form, and two regions that traverse a shared edge in opposite
// directions agree on every cell it touches.
func (r Rect) IntersectsSegment(s Segment) bool {
	s = s.Canonical()
	if r.ContainsPoint(s.A) || r.ContainsPoint(s.B) {
		return true
	}
	if !r.Intersects(s.Bounds()) {
		return false
	}
	return r.straddledBy(s)
}

// IntersectsCanonicalSegment is IntersectsSegment for a segment already in
// canonical form whose bounds the caller has found to meet the rect — the
// rasterizer's segment table holds both facts — so it neither reorders s nor
// recomputes its bounds, and answers as IntersectsSegment does on every such
// pair.
func (r Rect) IntersectsCanonicalSegment(s Segment) bool {
	return r.ContainsPoint(s.A) || r.ContainsPoint(s.B) || r.straddledBy(s)
}

// straddledBy reports whether the rect's corners do not all lie strictly on
// one side of s's line: the separating-axis test's last axis.
//
// It is orient(s.A, s.B, corner) at each corner, term for term, with the
// products shared — a corner's X meets only s's dy and its Y only its dx —
// at half the multiplications.
func (r Rect) straddledBy(s Segment) bool {
	dx, dy := s.B.X-s.A.X, s.B.Y-s.A.Y
	x0, x1 := dy*(r.Min.X-s.A.X), dy*(r.Max.X-s.A.X)
	y0, y1 := dx*(r.Min.Y-s.A.Y), dx*(r.Max.Y-s.A.Y)
	o := orientation(y0 - x0)
	return o == collinear || orientation(y0-x1) != o || orientation(y1-x1) != o || orientation(y1-x0) != o
}
