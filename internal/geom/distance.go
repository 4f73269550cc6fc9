package geom

// This file implements the Hausdorff distance of §2.2:
//
//	d_H(g, g') = max( max_{p'∈g'} min_{p∈g} d(p,p'),  max_{p∈g} min_{p'∈g'} d(p',p) )
//
// The library uses it to *verify* the distance bound that raster
// approximations guarantee by construction: d_H(polygon, cell union) ≤ ε
// when boundary cells have side ≤ ε/√2.
//
// Regions here are treated as filled sets (not just boundaries), matching the
// paper's guarantee that false positives/negatives are within ε of the
// original geometry. The directed distance from set A to set B is
// max_{a∈A} dist(a, B); for filled planar sets this maximum is attained on
// the boundary of A, so sampling A's boundary densely suffices.

// RegionSet is the minimal view of a filled planar set needed to estimate
// Hausdorff distances: membership plus distance-to-set.
type RegionSet interface {
	ContainsPoint(Point) bool
	DistToPoint(Point) float64
}

// SampleRingBoundary returns points spaced at most step apart along the ring
// boundary, always including every vertex.
func SampleRingBoundary(r Ring, step float64) []Point {
	if step <= 0 {
		step = 1
	}
	var out []Point
	for i := range r {
		e := r.Edge(i)
		out = append(out, e.A)
		l := e.Length()
		n := int(l / step)
		for k := 1; k <= n; k++ {
			t := float64(k) / float64(n+1)
			out = append(out, e.A.Add(e.B.Sub(e.A).Scale(t)))
		}
	}
	return out
}

// SampleRegionBoundary samples all boundary rings of a Polygon or
// MultiPolygon at the given step.
func SampleRegionBoundary(rg Region, step float64) []Point {
	var out []Point
	switch v := rg.(type) {
	case *Polygon:
		for _, ring := range v.Rings() {
			out = append(out, SampleRingBoundary(ring, step)...)
		}
	case *MultiPolygon:
		for _, p := range v.Polygons {
			for _, ring := range p.Rings() {
				out = append(out, SampleRingBoundary(ring, step)...)
			}
		}
	}
	return out
}

// DirectedHausdorff returns an estimate of max over the sampled points of
// their distance to the target set.
func DirectedHausdorff(samples []Point, target RegionSet) float64 {
	var d float64
	for _, p := range samples {
		if v := target.DistToPoint(p); v > d {
			d = v
		}
	}
	return d
}
