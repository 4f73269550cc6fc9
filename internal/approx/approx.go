// Package approx implements the classical geometric approximations surveyed
// in §2.1 of the paper — MBR, Rotated MBR, Minimum Bounding Circle, Convex
// Hull, n-Corner (Brinkhoff et al.) and the Clipped Bounding Rectangle
// (Sidlauskas et al.) — under one interface, alongside adapters for the
// raster approximations of package raster.
//
// Its purpose is the quantitative ablation behind Figures 1 and 2: measuring
// false-area ratios and Hausdorff distances shows that the classical
// approximations have data-dependent, unbounded error, while raster
// approximations have a tunable, geometry-independent distance bound (§2.2).
package approx

import (
	"math"

	"distbound/internal/geom"
	"distbound/internal/raster"
	"distbound/internal/sfc"
)

// Geometry is an approximation of a polygon viewed as a filled region.
type Geometry interface {
	// Name identifies the approximation kind.
	Name() string
	// ContainsPoint reports whether p is inside the approximation.
	ContainsPoint(p geom.Point) bool
	// Area returns the approximation area.
	Area() float64
	// BoundarySamples returns points on the approximation outline, spaced at
	// most step apart, for Hausdorff estimation.
	BoundarySamples(step float64) []geom.Point
}

// rectGeometry adapts geom.Rect (the MBR).
type rectGeometry struct {
	r geom.Rect
}

// MBR returns the Minimum Bounding Rectangle approximation.
func MBR(p *geom.Polygon) Geometry { return rectGeometry{p.Bounds()} }

func (g rectGeometry) Name() string                    { return "MBR" }
func (g rectGeometry) ContainsPoint(p geom.Point) bool { return g.r.ContainsPoint(p) }
func (g rectGeometry) Area() float64                   { return g.r.Area() }
func (g rectGeometry) BoundarySamples(step float64) []geom.Point {
	c := g.r.Corners()
	return geom.SampleRingBoundary(geom.Ring(c[:]), step)
}

// ringGeometry adapts a convex ring (RMBR, CH, n-corner).
type ringGeometry struct {
	name string
	ring geom.Ring
}

func (g ringGeometry) Name() string                    { return g.name }
func (g ringGeometry) ContainsPoint(p geom.Point) bool { return g.ring.ContainsPoint(p) }
func (g ringGeometry) Area() float64                   { return g.ring.Area() }
func (g ringGeometry) BoundarySamples(step float64) []geom.Point {
	return geom.SampleRingBoundary(g.ring, step)
}

// allVertices gathers the polygon's outer-ring vertices (holes do not affect
// outer bounding approximations).
func allVertices(p *geom.Polygon) []geom.Point { return p.Outer }

// RMBR returns the Rotated Minimum Bounding Rectangle approximation.
func RMBR(p *geom.Polygon) Geometry {
	or := geom.MinAreaOrientedRect(allVertices(p))
	return ringGeometry{name: "RMBR", ring: geom.Ring(or.Corners[:])}
}

// CH returns the Convex Hull approximation.
func CH(p *geom.Polygon) Geometry {
	return ringGeometry{name: "CH", ring: geom.ConvexHull(allVertices(p))}
}

// NCorner returns the Minimum Bounding n-Corner approximation.
func NCorner(p *geom.Polygon, n int) Geometry {
	return ringGeometry{name: ncName(n), ring: geom.MinBoundingNCorner(allVertices(p), n)}
}

func ncName(n int) string {
	switch n {
	case 4:
		return "4-C"
	case 5:
		return "5-C"
	default:
		return "n-C"
	}
}

// circleGeometry adapts geom.Circle (the MBC).
type circleGeometry struct {
	c geom.Circle
}

// MBC returns the Minimum Bounding Circle approximation.
func MBC(p *geom.Polygon) Geometry {
	return circleGeometry{geom.MinBoundingCircle(allVertices(p))}
}

func (g circleGeometry) Name() string                    { return "MBC" }
func (g circleGeometry) ContainsPoint(p geom.Point) bool { return g.c.Encloses(p) }
func (g circleGeometry) Area() float64                   { return g.c.Area() }
func (g circleGeometry) BoundarySamples(step float64) []geom.Point {
	n := int(2*math.Pi*g.c.Radius/step) + 4
	out := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		out = append(out, geom.Pt(
			g.c.Center.X+g.c.Radius*math.Cos(ang),
			g.c.Center.Y+g.c.Radius*math.Sin(ang)))
	}
	return out
}

// cbrGeometry is the Clipped Bounding Rectangle: the MBR with one diagonal
// cut per corner removing provably empty space.
type cbrGeometry struct {
	r geom.Rect
	// cut[i] is the clip depth of corner i (order: min-min, max-min,
	// max-max, min-max) along the diagonal functional of that corner. Zero
	// means no cut.
	cut [4]float64
}

// CBR returns the Clipped Bounding Rectangle approximation. Cut depths are
// derived from the vertex extrema of the diagonal functionals ±x±y, which is
// exact because the functionals are linear along edges. Cuts are clamped to
// half the shorter MBR side so that neighbouring cuts never overlap.
func CBR(p *geom.Polygon) Geometry {
	r := p.Bounds()
	g := cbrGeometry{r: r}
	f := [4]func(geom.Point) float64{
		func(q geom.Point) float64 { return (q.X - r.Min.X) + (q.Y - r.Min.Y) },
		func(q geom.Point) float64 { return (r.Max.X - q.X) + (q.Y - r.Min.Y) },
		func(q geom.Point) float64 { return (r.Max.X - q.X) + (r.Max.Y - q.Y) },
		func(q geom.Point) float64 { return (q.X - r.Min.X) + (r.Max.Y - q.Y) },
	}
	for i := range f {
		m := math.Inf(1)
		for _, v := range p.Outer {
			if d := f[i](v); d < m {
				m = d
			}
		}
		g.cut[i] = math.Min(m, math.Min(r.Width(), r.Height())/2)
	}
	return g
}

func (g cbrGeometry) Name() string { return "CBR" }

func (g cbrGeometry) ContainsPoint(p geom.Point) bool {
	if !g.r.ContainsPoint(p) {
		return false
	}
	r := g.r
	if (p.X-r.Min.X)+(p.Y-r.Min.Y) < g.cut[0] {
		return false
	}
	if (r.Max.X-p.X)+(p.Y-r.Min.Y) < g.cut[1] {
		return false
	}
	if (r.Max.X-p.X)+(r.Max.Y-p.Y) < g.cut[2] {
		return false
	}
	if (p.X-r.Min.X)+(r.Max.Y-p.Y) < g.cut[3] {
		return false
	}
	return true
}

func (g cbrGeometry) Area() float64 {
	a := g.r.Area()
	for _, c := range g.cut {
		a -= c * c / 2
	}
	return a
}

func (g cbrGeometry) BoundarySamples(step float64) []geom.Point {
	return geom.SampleRingBoundary(g.outline(), step)
}

// outline returns the octagonal outline of the clipped rectangle.
func (g cbrGeometry) outline() geom.Ring {
	r := g.r
	var ring geom.Ring
	add := func(p geom.Point) {
		if len(ring) == 0 || !ring[len(ring)-1].Eq(p) {
			ring = append(ring, p)
		}
	}
	// Corner 0 (min-min): cut segment from (minX+c, minY) to (minX, minY+c).
	add(geom.Pt(r.Min.X+g.cut[0], r.Min.Y))
	add(geom.Pt(r.Max.X-g.cut[1], r.Min.Y))
	add(geom.Pt(r.Max.X, r.Min.Y+g.cut[1]))
	add(geom.Pt(r.Max.X, r.Max.Y-g.cut[2]))
	add(geom.Pt(r.Max.X-g.cut[2], r.Max.Y))
	add(geom.Pt(r.Min.X+g.cut[3], r.Max.Y))
	add(geom.Pt(r.Min.X, r.Max.Y-g.cut[3]))
	add(geom.Pt(r.Min.X, r.Min.Y+g.cut[0]))
	return ring
}

// rasterGeometry adapts a raster.Approximation.
type rasterGeometry struct {
	name string
	a    *raster.Approximation
}

// UR returns the Uniform Raster approximation at the given level.
func UR(p *geom.Polygon, d sfc.Domain, curve sfc.Curve, level int) Geometry {
	return rasterGeometry{name: "UR", a: raster.Uniform(p, d, curve, level, raster.Conservative)}
}

// HR returns the Hierarchical Raster approximation at the given distance
// bound.
func HR(p *geom.Polygon, d sfc.Domain, curve sfc.Curve, eps float64) (Geometry, error) {
	a, err := raster.Hierarchical(p, d, curve, eps, raster.Conservative)
	if err != nil {
		return nil, err
	}
	return rasterGeometry{name: "HR", a: a}, nil
}

func (g rasterGeometry) Name() string                    { return g.name }
func (g rasterGeometry) ContainsPoint(p geom.Point) bool { return g.a.ContainsPoint(p) }
func (g rasterGeometry) Area() float64                   { return g.a.Area() }
func (g rasterGeometry) BoundarySamples(step float64) []geom.Point {
	return g.a.BoundarySamples(step)
}

// Raster exposes the underlying raster approximation (nil for non-raster
// geometries).
func (g rasterGeometry) Raster() *raster.Approximation { return g.a }
