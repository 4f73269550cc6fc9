package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestConvexHullSquarePlusInterior(t *testing.T) {
	pts := []Point{
		Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2), // corners
		Pt(1, 1), Pt(0.5, 0.5), Pt(1.5, 1.2), // interior
		Pt(1, 0), // collinear on an edge
	}
	hull := ConvexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull size = %d, want 4 (%v)", len(hull), hull)
	}
	if hull.SignedArea() <= 0 {
		t.Error("hull not CCW")
	}
	if got := hull.Area(); got != 4 {
		t.Errorf("hull area = %v, want 4", got)
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if h := ConvexHull(nil); h != nil {
		t.Errorf("empty hull = %v", h)
	}
	if h := ConvexHull([]Point{Pt(1, 1), Pt(1, 1)}); len(h) != 1 {
		t.Errorf("single-point hull = %v", h)
	}
	if h := ConvexHull([]Point{Pt(0, 0), Pt(1, 1)}); len(h) != 2 {
		t.Errorf("two-point hull = %v", h)
	}
}

func TestConvexHullContainsAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(200)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*100, rng.Float64()*100)
		}
		hull := ConvexHull(pts)
		if len(hull) < 3 {
			continue
		}
		for _, p := range pts {
			if !hull.ContainsPoint(p) {
				t.Fatalf("trial %d: hull misses input point %v", trial, p)
			}
		}
		// Convexity: every triple of consecutive vertices turns left.
		for i := range hull {
			a := hull[i]
			b := hull[(i+1)%len(hull)]
			c := hull[(i+2)%len(hull)]
			if orient(a, b, c) != counterclockwise {
				t.Fatalf("trial %d: hull not strictly convex at %d", trial, i)
			}
		}
	}
}

func TestMinBoundingCircle(t *testing.T) {
	// Square: MBC is the circumcircle.
	pts := []Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	c := MinBoundingCircle(pts)
	if c.Center.Dist(Pt(1, 1)) > 1e-9 {
		t.Errorf("center = %v, want (1,1)", c.Center)
	}
	if math.Abs(c.Radius-math.Sqrt2) > 1e-9 {
		t.Errorf("radius = %v, want √2", c.Radius)
	}
	// Two points: diametric circle.
	c2 := MinBoundingCircle([]Point{Pt(0, 0), Pt(4, 0)})
	if c2.Center.Dist(Pt(2, 0)) > 1e-9 || math.Abs(c2.Radius-2) > 1e-9 {
		t.Errorf("diametric circle = %+v", c2)
	}
}

func TestMinBoundingCircleContainsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(150)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(rng.NormFloat64()*50, rng.NormFloat64()*50)
		}
		c := MinBoundingCircle(pts)
		for _, p := range pts {
			if c.Center.Dist(p) > c.Radius+1e-6 {
				t.Fatalf("trial %d: point %v outside MBC %+v by %g", trial, p, c, c.Center.Dist(p)-c.Radius)
			}
		}
	}
}

// TestMinBoundingCircleEnclosesFarFromOrigin: Welzl's circumcentres round
// worse the farther the input lies from the origin, and city coordinates
// reach 65,536 m. Every vertex of a small star must still test inside its
// circle at every scale.
func TestMinBoundingCircleEnclosesFarFromOrigin(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, scale := range []float64{1e3, 1e4, 1e5, 1e6} {
		misses := 0
		for trial := 0; trial < 5000; trial++ {
			center := Pt((2*rng.Float64()-1)*scale, (2*rng.Float64()-1)*scale)
			star := randomStarPolygon(rng, center, 1, 10, 3+rng.Intn(20))
			c := MinBoundingCircle(star.Outer)
			for _, p := range star.Outer {
				if !c.Encloses(p) {
					misses++
					break
				}
			}
		}
		if misses > 0 {
			t.Errorf("|centre| ≤ %g: %d of 5000 stars leave a vertex outside their MBC", scale, misses)
		}
	}
}

func TestMinAreaOrientedRect(t *testing.T) {
	// A rotated 4x2 rectangle: the oriented MBR should recover area 8, while
	// the axis-aligned MBR is strictly larger.
	ang := math.Pi / 6
	cos, sin := math.Cos(ang), math.Sin(ang)
	rot := func(p Point) Point {
		return Pt(p.X*cos-p.Y*sin, p.X*sin+p.Y*cos)
	}
	pts := []Point{rot(Pt(0, 0)), rot(Pt(4, 0)), rot(Pt(4, 2)), rot(Pt(0, 2))}
	or := MinAreaOrientedRect(pts)
	if math.Abs(or.Area()-8) > 1e-9 {
		t.Errorf("oriented area = %v, want 8", or.Area())
	}
	aabb := RectFromPoints(pts...)
	if aabb.Area() <= 8 {
		t.Errorf("axis-aligned MBR area = %v, should exceed 8", aabb.Area())
	}
	for _, p := range pts {
		if !or.ContainsPoint(p) {
			t.Errorf("oriented rect misses %v", p)
		}
	}
}

func TestMinBoundingNCorner(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]Point, 60)
	for i := range pts {
		ang := 2 * math.Pi * float64(i) / 60
		r := 10 + rng.Float64()
		pts[i] = Pt(r*math.Cos(ang), r*math.Sin(ang))
	}
	hull := ConvexHull(pts)
	for _, n := range []int{5, 8, 16} {
		ring := MinBoundingNCorner(pts, n)
		if len(ring) > n {
			t.Errorf("n=%d: got %d corners", n, len(ring))
		}
		for _, p := range pts {
			// Old hull vertices land exactly on new ring edges, so allow
			// floating-point slack via the boundary distance.
			if !ring.ContainsPoint(p) && ring.DistToPoint(p) > 1e-9 {
				t.Errorf("n=%d: point %v not enclosed", n, p)
			}
		}
		if ring.Area() < hull.Area()-1e-9 {
			t.Errorf("n=%d: bounding n-corner smaller than hull", n)
		}
	}
}

func TestSampleRingBoundary(t *testing.T) {
	sq := unitSquare()
	samples := SampleRingBoundary(sq, 0.1)
	if len(samples) < 40 {
		t.Errorf("too few samples: %d", len(samples))
	}
	for _, s := range samples {
		if sq.DistToPoint(s) > 1e-9 {
			t.Errorf("sample %v not on boundary", s)
		}
	}
	// Consecutive spacing bound along each edge.
	for i := 1; i < len(samples); i++ {
		if samples[i-1].Dist(samples[i]) > 0.5+1e-9 {
			// Jumps between edges can be up to an edge length; only flag
			// absurd gaps.
			t.Errorf("sample gap too large between %v and %v", samples[i-1], samples[i])
		}
	}
}

func TestDirectedHausdorffAgainstPolygon(t *testing.T) {
	p := MustPolygon(Ring{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)})
	// A displaced copy: directed distance from its samples to p is 1.
	q := p.Translate(Pt(1, 0))
	samples := SampleRegionBoundary(q, 0.05)
	got := DirectedHausdorff(samples, p)
	if math.Abs(got-1) > 0.06 {
		t.Errorf("DirectedHausdorff = %v, want ≈1", got)
	}
}
