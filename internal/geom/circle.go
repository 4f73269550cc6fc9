package geom

import "math"

// Circle as a queryable Region: the raster pipeline is geometry-independent
// (§4), so giving the disk the Region interface makes circular selections —
// "all pickups within r meters of a point" — work through exactly the same
// approximation, indexing and join machinery as polygons, with no
// circle-specific query code.

// Bounds returns the disk's MBR.
func (c Circle) Bounds() Rect {
	return Rect{
		Min: Pt(c.Center.X-c.Radius, c.Center.Y-c.Radius),
		Max: Pt(c.Center.X+c.Radius, c.Center.Y+c.Radius),
	}
}

// NumVertices returns 0: a disk has no polygonal boundary, and the vertex
// count only feeds PIP cost accounting, which never applies to disks.
func (c Circle) NumVertices() int { return 0 }

// BoundaryDist returns the distance from p to the circle outline.
func (c Circle) BoundaryDist(p Point) float64 {
	return math.Abs(c.Center.Dist(p) - c.Radius)
}

// DistToPoint returns 0 when p is inside the closed disk, otherwise the
// distance to the outline.
func (c Circle) DistToPoint(p Point) float64 {
	d := c.Center.Dist(p) - c.Radius
	if d < 0 {
		return 0
	}
	return d
}

// RelateRect classifies an axis-aligned rect against the disk.
func (c Circle) RelateRect(r Rect) RectRelation {
	// Disjoint: the rect's nearest point is outside the disk.
	if r.DistToPoint(c.Center) > c.Radius {
		return RectOutside
	}
	// Inside: the rect's farthest corner is inside the disk, by ContainsPoint's
	// own Dist2 ≤ r² form — no point of the rect lies farther than that corner,
	// so an inside rect holds only points ContainsPoint accepts.
	far := 0.0
	for _, corner := range r.Corners() {
		if d := c.Center.Dist2(corner); d > far {
			far = d
		}
	}
	if far <= c.Radius*c.Radius {
		return RectInside
	}
	return RectPartial
}

var _ Region = Circle{}
