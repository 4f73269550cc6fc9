package geom

import (
	"errors"
	"math"
)

// Ring is a closed polygonal chain. The closing edge from the last vertex
// back to the first is implicit; callers should not repeat the first vertex.
// Orientation is not prescribed: predicates work for either winding.
type Ring []Point

// ErrDegenerateRing is returned when constructing a polygon from a ring with
// fewer than three vertices.
var ErrDegenerateRing = errors.New("geom: ring needs at least 3 vertices")

// Edge returns the i-th edge (from vertex i to vertex (i+1) mod n).
func (r Ring) Edge(i int) Segment {
	j := i + 1
	if j == len(r) {
		j = 0
	}
	return Segment{r[i], r[j]}
}

// Bounds returns the minimal rect containing the ring.
func (r Ring) Bounds() Rect {
	return RectFromPoints(r...)
}

// SignedArea returns the signed area of the ring: positive when the vertices
// wind counter-clockwise.
func (r Ring) SignedArea() float64 {
	if len(r) < 3 {
		return 0
	}
	var a float64
	for i := range r {
		e := r.Edge(i)
		a += e.A.Cross(e.B)
	}
	return a / 2
}

// Area returns the absolute ring area.
func (r Ring) Area() float64 { return math.Abs(r.SignedArea()) }

// ContainsPoint reports whether p lies inside or on the boundary of the ring,
// using the even-odd crossing rule with boundary points treated as inside.
func (r Ring) ContainsPoint(p Point) bool {
	if len(r) < 3 {
		return false
	}
	inside := false
	for i := range r {
		e := r.Edge(i)
		a, b := e.A, e.B
		// Boundary counts as contained.
		if orient(a, b, p) == collinear && onSegment(a, b, p) {
			return true
		}
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xCross := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if p.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

// DistToPoint returns the distance from p to the ring boundary.
func (r Ring) DistToPoint(p Point) float64 {
	d := math.Inf(1)
	for i := range r {
		if v := r.Edge(i).DistToPoint(p); v < d {
			d = v
		}
	}
	return d
}

// IntersectsSegment reports whether any ring edge intersects s.
func (r Ring) IntersectsSegment(s Segment) bool {
	sb := s.Bounds()
	for i := range r {
		e := r.Edge(i)
		if e.Bounds().Intersects(sb) && e.Intersects(s) {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the ring.
func (r Ring) Clone() Ring {
	out := make(Ring, len(r))
	copy(out, r)
	return out
}

// Polygon is a simple polygon given by one outer ring and zero or more holes.
// Points on any boundary (outer or hole) are considered contained.
type Polygon struct {
	Outer Ring
	Holes []Ring

	bounds Rect // cached bounding rect
}

// NewPolygon builds a polygon from an outer ring and optional holes.
// It returns ErrDegenerateRing when any ring has fewer than three vertices.
func NewPolygon(outer Ring, holes ...Ring) (*Polygon, error) {
	if len(outer) < 3 {
		return nil, ErrDegenerateRing
	}
	for _, h := range holes {
		if len(h) < 3 {
			return nil, ErrDegenerateRing
		}
	}
	p := &Polygon{Outer: outer, Holes: holes}
	p.bounds = outer.Bounds()
	return p, nil
}

// MustPolygon is NewPolygon that panics on error; intended for literals in
// tests and examples.
func MustPolygon(outer Ring, holes ...Ring) *Polygon {
	p, err := NewPolygon(outer, holes...)
	if err != nil {
		panic(err)
	}
	return p
}

// Bounds returns the polygon's minimum bounding rectangle.
func (p *Polygon) Bounds() Rect { return p.bounds }

// NumVertices returns the total vertex count across all rings.
func (p *Polygon) NumVertices() int {
	n := len(p.Outer)
	for _, h := range p.Holes {
		n += len(h)
	}
	return n
}

// Rings returns all rings: the outer ring first, then the holes.
func (p *Polygon) Rings() []Ring {
	out := make([]Ring, 0, 1+len(p.Holes))
	out = append(out, p.Outer)
	return append(out, p.Holes...)
}

// Area returns the polygon area (outer area minus hole areas).
func (p *Polygon) Area() float64 {
	a := p.Outer.Area()
	for _, h := range p.Holes {
		a -= h.Area()
	}
	return a
}

// ContainsPoint reports whether pt lies inside the polygon (in the outer
// ring, not strictly inside any hole). Boundary points are contained. This is
// the exact point-in-polygon (PIP) test, with cost linear in the vertex
// count, that approximate query processing eliminates.
func (p *Polygon) ContainsPoint(pt Point) bool {
	if !p.bounds.ContainsPoint(pt) {
		return false
	}
	if !p.Outer.ContainsPoint(pt) {
		return false
	}
	for _, h := range p.Holes {
		// A point on a hole boundary is still part of the polygon.
		if h.ContainsPoint(pt) && h.DistToPoint(pt) > 0 {
			return false
		}
	}
	return true
}

// BoundaryDist returns the distance from pt to the nearest polygon boundary
// (outer or hole), regardless of whether pt is inside.
func (p *Polygon) BoundaryDist(pt Point) float64 {
	d := p.Outer.DistToPoint(pt)
	for _, h := range p.Holes {
		if v := h.DistToPoint(pt); v < d {
			d = v
		}
	}
	return d
}

// DistToPoint returns the distance from pt to the polygon as a region:
// 0 when pt is contained, otherwise the distance to the boundary.
func (p *Polygon) DistToPoint(pt Point) float64 {
	if p.ContainsPoint(pt) {
		return 0
	}
	return p.BoundaryDist(pt)
}

// RectRelation classifies an axis-aligned rectangle against a polygon.
type RectRelation int

// Relation values returned by RelateRect.
const (
	// RectOutside: the rectangle and polygon are disjoint.
	RectOutside RectRelation = iota
	// RectInside: the rectangle lies entirely within the polygon.
	RectInside
	// RectPartial: the rectangle overlaps the polygon boundary.
	RectPartial
)

// RelateRect classifies r against the polygon. It is the primitive that
// drives hierarchical rasterization: cells classified RectInside become
// interior cells, RectPartial cells are refined or emitted as boundary
// cells, and RectOutside cells are pruned.
func (p *Polygon) RelateRect(r Rect) RectRelation {
	if !p.bounds.Intersects(r) {
		return RectOutside
	}
	// Any boundary edge meeting the rect means partial overlap. Edge-in-rect
	// also covers rings that lie entirely within r.
	for _, ring := range p.Rings() {
		for i := range ring {
			if r.IntersectsSegment(ring.Edge(i)) {
				return RectPartial
			}
		}
	}
	// No boundary touches the rect: it is uniformly inside or outside, so a
	// single representative point decides.
	if p.ContainsPoint(r.Center()) {
		return RectInside
	}
	return RectOutside
}

// Translate returns a copy of the polygon shifted by d.
//
//distbound:oracle the WKT round-trip test builds its second part with it
func (p *Polygon) Translate(d Point) *Polygon {
	move := func(r Ring) Ring {
		out := make(Ring, len(r))
		for i, pt := range r {
			out[i] = pt.Add(d)
		}
		return out
	}
	holes := make([]Ring, len(p.Holes))
	for i, h := range p.Holes {
		holes[i] = move(h)
	}
	return MustPolygon(move(p.Outer), holes...)
}

// MultiPolygon is a collection of polygons treated as one region, as in the
// paper's NYC neighborhood data where "some of the regions are
// multi-polygons".
type MultiPolygon struct {
	Polygons []*Polygon

	bounds Rect
}

// NewMultiPolygon builds a multi-polygon region from parts.
func NewMultiPolygon(parts ...*Polygon) *MultiPolygon {
	m := &MultiPolygon{Polygons: parts, bounds: EmptyRect()}
	for _, p := range parts {
		m.bounds = m.bounds.Union(p.Bounds())
	}
	return m
}

// Bounds returns the MBR of all parts.
func (m *MultiPolygon) Bounds() Rect { return m.bounds }

// NumVertices returns the total vertex count across all parts.
func (m *MultiPolygon) NumVertices() int {
	n := 0
	for _, p := range m.Polygons {
		n += p.NumVertices()
	}
	return n
}

// Area returns the summed area of all parts.
func (m *MultiPolygon) Area() float64 {
	var a float64
	for _, p := range m.Polygons {
		a += p.Area()
	}
	return a
}

// ContainsPoint reports whether pt lies in any part.
func (m *MultiPolygon) ContainsPoint(pt Point) bool {
	if !m.bounds.ContainsPoint(pt) {
		return false
	}
	for _, p := range m.Polygons {
		if p.ContainsPoint(pt) {
			return true
		}
	}
	return false
}

// BoundaryDist returns the distance from pt to the nearest part boundary.
func (m *MultiPolygon) BoundaryDist(pt Point) float64 {
	d := math.Inf(1)
	for _, p := range m.Polygons {
		if v := p.BoundaryDist(pt); v < d {
			d = v
		}
	}
	return d
}

// DistToPoint returns 0 when pt is contained, otherwise the boundary distance.
func (m *MultiPolygon) DistToPoint(pt Point) float64 {
	if m.ContainsPoint(pt) {
		return 0
	}
	return m.BoundaryDist(pt)
}

// RelateRect classifies r against the union of parts.
func (m *MultiPolygon) RelateRect(r Rect) RectRelation {
	out := RectOutside
	for _, p := range m.Polygons {
		switch p.RelateRect(r) {
		case RectInside:
			return RectInside
		case RectPartial:
			out = RectPartial
		}
	}
	return out
}

// Region is the read-only geometric interface shared by Polygon and
// MultiPolygon; rasterization, indexing and joins operate on Regions so that
// a single implementation serves both geometry types — the unified
// representation argued for in §4 of the paper.
type Region interface {
	Bounds() Rect
	Area() float64
	ContainsPoint(Point) bool
	BoundaryDist(Point) float64
	DistToPoint(Point) float64
	RelateRect(Rect) RectRelation
}

var (
	_ Region = (*Polygon)(nil)
	_ Region = (*MultiPolygon)(nil)
)

// Polygons decomposes a region into its polygons: the polygon itself, or a
// multi-polygon's parts. It returns nil for any other Region, whose rings
// are not accessible.
func Polygons(rg Region) []*Polygon {
	switch v := rg.(type) {
	case *Polygon:
		return []*Polygon{v}
	case *MultiPolygon:
		return v.Polygons
	default:
		return nil
	}
}
