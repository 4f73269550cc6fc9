package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestCircleRegionInterface(t *testing.T) {
	c := Circle{Center: Pt(10, 10), Radius: 5}
	b := c.Bounds()
	if b.Min != Pt(5, 5) || b.Max != Pt(15, 15) {
		t.Errorf("Bounds = %v", b)
	}
	if !c.ContainsPoint(Pt(10, 14.9)) || c.ContainsPoint(Pt(10, 15.1)) {
		t.Error("containment wrong")
	}
	if got := c.DistToPoint(Pt(10, 10)); got != 0 {
		t.Errorf("inside DistToPoint = %v", got)
	}
	if got := c.DistToPoint(Pt(10, 17)); math.Abs(got-2) > 1e-12 {
		t.Errorf("outside DistToPoint = %v, want 2", got)
	}
	if got := c.BoundaryDist(Pt(10, 10)); math.Abs(got-5) > 1e-12 {
		t.Errorf("center BoundaryDist = %v, want 5", got)
	}
}

// TestCirclePredicatesAgree: ContainsPoint has no tolerance band, never
// accepts a point its Bounds exclude, and accepts every point of a rect
// RelateRect calls inside.
func TestCirclePredicatesAgree(t *testing.T) {
	c := Circle{Center: Pt(0, 0), Radius: 100}
	for _, p := range []Point{Pt(100+1e-11, 0), Pt(0, -100-1e-11), Pt(-100-1e-11, 0)} {
		if c.ContainsPoint(p) || c.Bounds().ContainsPoint(p) {
			t.Errorf("%v, 1e-11 beyond the radius, is held: ContainsPoint %v, Bounds %v", p, c.ContainsPoint(p), c.Bounds().ContainsPoint(p))
		}
	}
	for _, p := range []Point{Pt(100, 0), Pt(0, -100), Pt(50, 50)} {
		if !c.ContainsPoint(p) {
			t.Errorf("%v is in the closed disk", p)
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		c := Circle{Center: Pt(rng.Float64()*1000, rng.Float64()*1000), Radius: 1 + rng.Float64()*300}
		a := rng.Float64() * 2 * math.Pi
		p := Pt(c.Center.X+c.Radius*math.Cos(a), c.Center.Y+c.Radius*math.Sin(a))
		for _, q := range []Point{p, Pt(math.Nextafter(p.X, math.Inf(1)), p.Y), Pt(p.X, math.Nextafter(p.Y, math.Inf(-1)))} {
			if c.ContainsPoint(q) && !c.Bounds().ContainsPoint(q) {
				t.Fatalf("%v holds %v outside its MBR %v", c, q, c.Bounds())
			}
		}
		side := rng.Float64() * c.Radius
		r := Rect{Min: Pt(p.X-side, p.Y-side), Max: p}
		if c.RelateRect(r) == RectInside {
			corners := r.Corners()
			for _, q := range append(corners[:], r.Center()) {
				if !c.ContainsPoint(q) {
					t.Fatalf("%v calls %v inside but does not hold %v", c, r, q)
				}
			}
		}
	}
}

func TestCircleRelateRect(t *testing.T) {
	c := Circle{Center: Pt(0, 0), Radius: 10}
	cases := []struct {
		r    Rect
		want RectRelation
	}{
		{Rect{Pt(-2, -2), Pt(2, 2)}, RectInside},
		{Rect{Pt(20, 20), Pt(30, 30)}, RectOutside},
		{Rect{Pt(8, -2), Pt(12, 2)}, RectPartial},     // straddles the arc
		{Rect{Pt(-20, -20), Pt(20, 20)}, RectPartial}, // contains the disk
		{Rect{Pt(9, 9), Pt(11, 11)}, RectOutside},     // corner gap outside
	}
	for _, cs := range cases {
		if got := c.RelateRect(cs.r); got != cs.want {
			t.Errorf("RelateRect(%v) = %v, want %v", cs.r, got, cs.want)
		}
	}
}

func TestCircleRelateRectConsistentWithSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := Circle{Center: Pt(50, 50), Radius: 20}
	for trial := 0; trial < 300; trial++ {
		lo := Pt(rng.Float64()*100, rng.Float64()*100)
		r := Rect{Min: lo, Max: Pt(lo.X+rng.Float64()*30, lo.Y+rng.Float64()*30)}
		rel := c.RelateRect(r)
		// Sample the rect and check consistency.
		anyIn, anyOut := false, false
		for i := 0; i < 50; i++ {
			p := Pt(r.Min.X+rng.Float64()*r.Width(), r.Min.Y+rng.Float64()*r.Height())
			if c.ContainsPoint(p) {
				anyIn = true
			} else {
				anyOut = true
			}
		}
		switch rel {
		case RectInside:
			if anyOut {
				t.Fatalf("rect %v classified inside but sample outside", r)
			}
		case RectOutside:
			if anyIn {
				t.Fatalf("rect %v classified outside but sample inside", r)
			}
		}
	}
}
