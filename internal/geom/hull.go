package geom

import (
	"math"
	"sort"
)

// ConvexHull returns the convex hull of pts in counter-clockwise order using
// Andrew's monotone chain. Collinear points on the hull are dropped. The
// input is not modified. Fewer than three distinct points yield a degenerate
// (possibly empty) ring.
func ConvexHull(pts []Point) Ring {
	if len(pts) == 0 {
		return nil
	}
	ps := make([]Point, len(pts))
	copy(ps, pts)
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].X != ps[j].X {
			return ps[i].X < ps[j].X
		}
		return ps[i].Y < ps[j].Y
	})
	// Deduplicate.
	uniq := ps[:1]
	for _, p := range ps[1:] {
		if !p.Eq(uniq[len(uniq)-1]) {
			uniq = append(uniq, p)
		}
	}
	ps = uniq
	if len(ps) < 3 {
		return Ring(ps)
	}

	hull := make([]Point, 0, 2*len(ps))
	// Lower hull.
	for _, p := range ps {
		for len(hull) >= 2 && orient(hull[len(hull)-2], hull[len(hull)-1], p) != counterclockwise {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := len(ps) - 2; i >= 0; i-- {
		p := ps[i]
		for len(hull) >= lower && orient(hull[len(hull)-2], hull[len(hull)-1], p) != counterclockwise {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return Ring(hull[:len(hull)-1])
}

// Circle is a disk given by center and radius; it serves as the Minimum
// Bounding Circle (MBC) approximation.
type Circle struct {
	Center Point
	Radius float64
}

// ContainsPoint reports whether p lies in the closed disk: in Bounds, and
// Dist2 ≤ r² — the form RelateRect's inside test uses. With no tolerance band
// and no point outside the MBR, Bounds, RelateRect and ContainsPoint agree
// on every point, so an MBR filter never drops a point the disk holds.
func (c Circle) ContainsPoint(p Point) bool {
	return c.Bounds().ContainsPoint(p) && c.Center.Dist2(p) <= c.Radius*c.Radius
}

// Encloses is ContainsPoint with a tolerance band beyond the radius and no MBR
// test, for a circle computed through its defining points — MinBoundingCircle
// and the MBC approximation built from it: those points land on the computed
// circle only up to rounding, and must still test inside it.
func (c Circle) Encloses(p Point) bool {
	return c.Center.Dist2(p) <= c.Radius*c.Radius*(1+1e-12)+1e-12
}

// Area returns the disk area.
func (c Circle) Area() float64 { return math.Pi * c.Radius * c.Radius }

// MinBoundingCircle returns the smallest enclosing circle of pts using
// Welzl's algorithm (iterative move-to-front variant, expected linear time).
// The input order is used as-is; callers wanting the randomized guarantee
// should shuffle beforehand. For the data sizes here the deterministic order
// is fine and keeps results reproducible.
func MinBoundingCircle(pts []Point) Circle {
	if len(pts) == 0 {
		return Circle{}
	}
	c := Circle{Center: pts[0], Radius: 0}
	for i := 1; i < len(pts); i++ {
		if c.Encloses(pts[i]) {
			continue
		}
		c = Circle{Center: pts[i], Radius: 0}
		for j := 0; j < i; j++ {
			if c.Encloses(pts[j]) {
				continue
			}
			c = circleFrom2(pts[i], pts[j])
			for k := 0; k < j; k++ {
				if !c.Encloses(pts[k]) {
					c = circleFrom3(pts[i], pts[j], pts[k])
				}
			}
		}
	}
	// A circumcentre far from the origin carries rounding that Encloses'
	// tolerance does not absorb, so a defining point can land outside the
	// computed circle: grow the radius to the farthest input point.
	for _, p := range pts {
		c.Radius = max(c.Radius, c.Center.Dist(p))
	}
	return c
}

func circleFrom2(a, b Point) Circle {
	center := Point{(a.X + b.X) / 2, (a.Y + b.Y) / 2}
	return Circle{Center: center, Radius: center.Dist(a)}
}

func circleFrom3(a, b, c Point) Circle {
	// Circumcircle via perpendicular bisector intersection.
	ax, ay := b.X-a.X, b.Y-a.Y
	bx, by := c.X-a.X, c.Y-a.Y
	d := 2 * (ax*by - ay*bx)
	if d == 0 {
		// Collinear: fall back to the diametric circle of the extremes.
		r := RectFromPoints(a, b, c)
		return circleFrom2(r.Min, r.Max)
	}
	ux := (by*(ax*ax+ay*ay) - ay*(bx*bx+by*by)) / d
	uy := (ax*(bx*bx+by*by) - bx*(ax*ax+ay*ay)) / d
	center := Point{a.X + ux, a.Y + uy}
	return Circle{Center: center, Radius: center.Dist(a)}
}

// OrientedRect is a possibly rotated rectangle given by its four corners in
// order; it serves as the Rotated Minimum Bounding Rectangle (RMBR)
// approximation.
type OrientedRect struct {
	Corners [4]Point
}

// Area returns the oriented rect area.
//
//distbound:oracle the minimum-area tests measure the oriented rectangle with it
func (o OrientedRect) Area() float64 {
	return Ring(o.Corners[:]).Area()
}

// ContainsPoint reports whether p lies in the closed oriented rect.
//
//distbound:oracle the minimum-area tests check the rectangle covers every point with it
func (o OrientedRect) ContainsPoint(p Point) bool {
	return Ring(o.Corners[:]).ContainsPoint(p)
}

// MinAreaOrientedRect returns the minimum-area oriented bounding rectangle of
// pts via rotating calipers over the convex hull: the optimal rectangle has a
// side collinear with a hull edge.
func MinAreaOrientedRect(pts []Point) OrientedRect {
	hull := ConvexHull(pts)
	if len(hull) == 0 {
		return OrientedRect{}
	}
	if len(hull) == 1 {
		return OrientedRect{Corners: [4]Point{hull[0], hull[0], hull[0], hull[0]}}
	}
	best := OrientedRect{}
	bestArea := math.Inf(1)
	for i := range hull {
		e := hull.Edge(i)
		dir := e.B.Sub(e.A)
		l := math.Hypot(dir.X, dir.Y)
		if l == 0 {
			continue
		}
		ux := Point{dir.X / l, dir.Y / l} // edge direction
		uy := Point{-ux.Y, ux.X}          // normal
		minU, maxU := math.Inf(1), math.Inf(-1)
		minV, maxV := math.Inf(1), math.Inf(-1)
		for _, p := range hull {
			u := p.Dot(ux)
			v := p.Dot(uy)
			minU = math.Min(minU, u)
			maxU = math.Max(maxU, u)
			minV = math.Min(minV, v)
			maxV = math.Max(maxV, v)
		}
		area := (maxU - minU) * (maxV - minV)
		if area < bestArea {
			bestArea = area
			corner := func(u, v float64) Point {
				return Point{ux.X*u + uy.X*v, ux.Y*u + uy.Y*v}
			}
			best = OrientedRect{Corners: [4]Point{
				corner(minU, minV), corner(maxU, minV),
				corner(maxU, maxV), corner(minU, maxV),
			}}
		}
	}
	return best
}

// MinBoundingNCorner returns a convex ring with at most n vertices that
// encloses pts (the n-Corner approximation of Brinkhoff et al.). It starts
// from the convex hull and repeatedly removes the vertex whose removal —
// replacing it by the intersection of its two adjacent edges — adds the least
// area, until at most n vertices remain. n must be at least 3.
func MinBoundingNCorner(pts []Point, n int) Ring {
	if n < 3 {
		n = 3
	}
	hull := ConvexHull(pts)
	if len(hull) <= n {
		return hull
	}
	ring := hull.Clone()
	for len(ring) > n {
		bestIdx := -1
		bestCost := math.Inf(1)
		var bestPt Point
		for i := range ring {
			prev := ring[(i-1+len(ring))%len(ring)]
			cur := ring[i]
			next := ring[(i+1)%len(ring)]
			nnext := ring[(i+2)%len(ring)]
			// Replace edge (cur, next) region: extend (prev,cur) and
			// (nnext,next) until they meet; the triangle added is the cost.
			// We remove vertex pair's shared edge by intersecting lines
			// prev->cur and nnext->next.
			ip, ok := lineIntersect(prev, cur, nnext, next)
			if !ok {
				continue
			}
			// The extended edges must meet beyond cur (along prev→cur) and
			// beyond next (along nnext→next); otherwise the removal would cut
			// into the hull instead of enclosing it. Cost is the area of the
			// triangle (cur, ip, next) added outside the hull.
			d1 := cur.Sub(prev)
			d2 := next.Sub(nnext)
			if ip.Sub(prev).Dot(d1) < d1.Dot(d1) || ip.Sub(nnext).Dot(d2) < d2.Dot(d2) {
				continue
			}
			cost := Ring{cur, ip, next}.Area()
			if cost < bestCost {
				bestCost = cost
				bestIdx = i
				bestPt = ip
			}
		}
		if bestIdx < 0 {
			break // no valid removal (nearly parallel edges everywhere)
		}
		// Replace vertices bestIdx and bestIdx+1 with the intersection point.
		next := (bestIdx + 1) % len(ring)
		out := make(Ring, 0, len(ring)-1)
		for i := range ring {
			if i == next {
				continue
			}
			if i == bestIdx {
				out = append(out, bestPt)
			} else {
				out = append(out, ring[i])
			}
		}
		ring = out
	}
	return ring
}

// lineIntersect returns the intersection of infinite lines (a1,a2) and
// (b1,b2); ok is false when they are parallel.
func lineIntersect(a1, a2, b1, b2 Point) (Point, bool) {
	d1 := a2.Sub(a1)
	d2 := b2.Sub(b1)
	den := d1.Cross(d2)
	if den == 0 {
		return Point{}, false
	}
	t := b1.Sub(a1).Cross(d2) / den
	return a1.Add(d1.Scale(t)), true
}
