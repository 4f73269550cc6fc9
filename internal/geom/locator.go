package geom

import "math"

// PointLocator answers ContainsPoint for one Polygon or MultiPolygon asked
// many times, as hierarchical rasterization asks once per edge-free cell.
// Each ring's edges are bucketed by Y extent and a query reads the one
// bucket holding p.Y, applying Ring.ContainsPoint's own rule to it.
//
// The answer is exact, not approximate: an edge whose Y extent excludes p.Y
// can neither hold p (onSegment needs p.Y within it) nor be crossed by the
// +X ray (both endpoints lie on the same side of p.Y), so the edges skipped
// are precisely those that cannot change the outcome; and the bucket
// function is monotone in Y, so every edge whose extent includes p.Y is
// registered in p.Y's bucket.
type PointLocator struct {
	bounds Rect
	polys  []polygonLocator
}

type polygonLocator struct {
	bounds Rect
	rings  []ringLocator // the outer ring first, then the holes
}

// ringLocator buckets one ring's edges: buckets[b] holds every edge whose Y
// extent meets [minY + b/scale, minY + (b+1)/scale].
type ringLocator struct {
	ring        Ring
	minY, scale float64
	buckets     [][]Segment
}

// NewPointLocator indexes rg's rings. It returns nil for a Region that is
// neither a *Polygon nor a *MultiPolygon: its rings are not accessible.
func NewPointLocator(rg Region) *PointLocator {
	polys := Polygons(rg)
	if polys == nil {
		return nil
	}
	l := &PointLocator{bounds: rg.Bounds(), polys: make([]polygonLocator, len(polys))}
	for i, p := range polys {
		l.polys[i].bounds = p.Bounds()
		for _, r := range p.Rings() {
			l.polys[i].rings = append(l.polys[i].rings, newRingLocator(r))
		}
	}
	return l
}

func newRingLocator(r Ring) ringLocator {
	// One bucket per edge on average. A ring with no usable height (flat, or
	// a NaN coordinate) gets a single bucket, which is the plain edge walk.
	rl := ringLocator{ring: r, buckets: make([][]Segment, 1)}
	if len(r) < 3 {
		return rl // contains nothing, as Ring.ContainsPoint
	}
	b := r.Bounds()
	if h := b.Max.Y - b.Min.Y; h > 0 && h <= math.MaxFloat64 {
		rl.minY, rl.scale = b.Min.Y, float64(len(r))/h
		rl.buckets = make([][]Segment, len(r))
	}
	for i := range r {
		e := r.Edge(i)
		for b, hi := rl.bucket(min(e.A.Y, e.B.Y)), rl.bucket(max(e.A.Y, e.B.Y)); b <= hi; b++ {
			rl.buckets[b] = append(rl.buckets[b], e)
		}
	}
	return rl
}

// bucket maps y to its bucket, clamping at both ends. Subtraction,
// multiplication by a positive constant and truncation are all monotone in
// floating point, so y1 ≤ y2 implies bucket(y1) ≤ bucket(y2) — the property
// exactness rests on.
func (rl *ringLocator) bucket(y float64) int {
	f := (y - rl.minY) * rl.scale
	if f >= float64(len(rl.buckets)) {
		return len(rl.buckets) - 1
	}
	return max(int(f), 0)
}

// containsPoint is Ring.ContainsPoint over the one bucket that can matter. A
// p.Y beyond the ring's extent clamps to an end bucket, none of whose edges
// it can touch.
func (rl *ringLocator) containsPoint(p Point) bool {
	inside := false
	for _, e := range rl.buckets[rl.bucket(p.Y)] {
		a, b := e.A, e.B
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

// MemoryBytes estimates the locator's footprint: its bucket tables and the
// edge copies in them, not the region's rings.
func (l *PointLocator) MemoryBytes() int {
	b := 56 + 56*len(l.polys)
	for _, pl := range l.polys {
		for _, rl := range pl.rings {
			b += 64 + 24*len(rl.buckets)
			for _, bk := range rl.buckets {
				b += 32 * cap(bk)
			}
		}
	}
	return b
}

// ContainsPoint reports what the indexed region's ContainsPoint reports, by
// the rules of MultiPolygon.ContainsPoint and Polygon.ContainsPoint.
func (l *PointLocator) ContainsPoint(pt Point) bool {
	if !l.bounds.ContainsPoint(pt) {
		return false
	}
polys:
	for i := range l.polys {
		pl := &l.polys[i]
		if !pl.bounds.ContainsPoint(pt) || !pl.rings[0].containsPoint(pt) {
			continue
		}
		for h := 1; h < len(pl.rings); h++ {
			// A point on a hole boundary is still part of the polygon.
			if pl.rings[h].containsPoint(pt) && pl.rings[h].ring.DistToPoint(pt) > 0 {
				continue polys
			}
		}
		return true
	}
	return false
}
