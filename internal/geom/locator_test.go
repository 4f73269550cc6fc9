package geom

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzRegion builds a star-shaped outer ring with up to three star-shaped
// holes, or two such polygons as a MultiPolygon. With snap, coordinates are
// rounded to a half-unit lattice, which manufactures horizontal edges,
// collinear runs, vertices sharing a Y and holes touching the outer ring.
func fuzzRegion(rng *rand.Rand, verts, holes int, snap, multi bool) Region {
	star := func(c Point, rMin, rMax float64, n int) Ring {
		r := make(Ring, n)
		for i := range r {
			ang := 2 * math.Pi * (float64(i) + 0.8*rng.Float64()) / float64(n)
			rad := rMin + rng.Float64()*(rMax-rMin)
			r[i] = Pt(c.X+rad*math.Cos(ang), c.Y+rad*math.Sin(ang))
			if snap {
				r[i] = Pt(math.Round(2*r[i].X)/2, math.Round(2*r[i].Y)/2)
			}
		}
		return r
	}
	polygon := func(c Point) *Polygon {
		var hs []Ring
		for h := 0; h < holes; h++ {
			ang := 2 * math.Pi * float64(h) / float64(holes)
			hc := Pt(c.X+4.5*math.Cos(ang), c.Y+4.5*math.Sin(ang))
			hs = append(hs, star(hc, 0.5, 3, 3+rng.Intn(6)))
		}
		return MustPolygon(star(c, 8, 20, verts), hs...)
	}
	if multi {
		return NewMultiPolygon(polygon(Pt(0, 0)), polygon(Pt(30, 11)))
	}
	return polygon(Pt(0, 0))
}

// FuzzPointLocator: the indexed answer is Region.ContainsPoint's answer — at
// random points, at every vertex and edge midpoint (the boundary-is-inside
// rule, on the outer ring and on holes), and at every bucket-boundary Y and
// its two floating-point neighbours.
func FuzzPointLocator(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(0), false, false)
	f.Add(int64(2), uint8(52), uint8(0), false, false)
	f.Add(int64(3), uint8(9), uint8(2), false, false)
	f.Add(int64(4), uint8(7), uint8(3), true, false)
	f.Add(int64(5), uint8(0), uint8(1), true, true)
	f.Add(int64(6), uint8(31), uint8(0), true, false)
	f.Add(int64(7), uint8(20), uint8(2), false, true)
	f.Fuzz(func(t *testing.T, seed int64, verts, holes uint8, snap, multi bool) {
		rng := rand.New(rand.NewSource(seed))
		rg := fuzzRegion(rng, 3+int(verts%62), int(holes%4), snap, multi)
		loc := NewPointLocator(rg)
		check := func(p Point) {
			t.Helper()
			if got, want := loc.ContainsPoint(p), rg.ContainsPoint(p); got != want {
				t.Fatalf("locator says %v at %v, ContainsPoint says %v", got, p, want)
			}
		}
		bb := rg.Bounds().Expand(2)
		randX := func() float64 { return bb.Min.X + rng.Float64()*bb.Width() }
		for i := 0; i < 200; i++ {
			check(Pt(randX(), bb.Min.Y+rng.Float64()*bb.Height()))
		}
		for _, part := range loc.polys {
			for _, rl := range part.rings {
				for i := range rl.ring {
					e := rl.ring.Edge(i)
					check(e.A)
					check(e.Midpoint())
					check(Pt(randX(), e.A.Y)) // a ray through a vertex
				}
				for b := 0; b <= len(rl.buckets); b++ {
					y := rl.minY + float64(b)/rl.scale
					for _, yy := range []float64{math.Nextafter(y, math.Inf(-1)), y, math.Nextafter(y, math.Inf(1))} {
						check(Pt(randX(), yy))
						check(Pt(rl.ring[rng.Intn(len(rl.ring))].X, yy))
					}
				}
			}
		}
	})
}

func TestPointLocatorInaccessibleRegion(t *testing.T) {
	if NewPointLocator(Circle{Center: Pt(0, 0), Radius: 1}) != nil {
		t.Error("a Region without rings must not get a locator")
	}
}
