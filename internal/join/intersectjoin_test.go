package join

import (
	"math"
	"math/rand"
	"testing"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

func randomStarRegion(rng *rand.Rand, cx, cy, rMin, rMax float64, n int) *geom.Polygon {
	ring := make(geom.Ring, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		r := rMin + rng.Float64()*(rMax-rMin)
		ring[i] = geom.Pt(cx+r*math.Cos(ang), cy+r*math.Sin(ang))
	}
	return geom.MustPolygon(ring)
}

func TestIntersectJoinerSupersetAndBounded(t *testing.T) {
	d, err := sfc.NewDomain(geom.Pt(0, 0), 4096)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	makeSet := func(n int) []geom.Region {
		out := make([]geom.Region, n)
		for i := range out {
			out[i] = randomStarRegion(rng,
				300+rng.Float64()*3400, 300+rng.Float64()*3400,
				60, 120+rng.Float64()*220, 6+rng.Intn(12))
		}
		return out
	}
	left := makeSet(25)
	right := makeSet(25)

	const eps = 16.0
	j, err := NewIntersectJoiner(left, right, d, sfc.Hilbert{}, eps)
	if err != nil {
		t.Fatal(err)
	}
	pairs := j.Pairs()
	reported := make(map[[2]int32]bool, len(pairs))
	for _, p := range pairs {
		reported[p] = true
	}

	exactPairs := 0
	for li, l := range left {
		for ri, r := range right {
			exact := geom.RegionsIntersect(l, r)
			key := [2]int32{int32(li), int32(ri)}
			if exact {
				exactPairs++
				if !reported[key] {
					t.Errorf("missed intersecting pair (%d, %d): conservative join must not miss", li, ri)
				}
			} else if reported[key] {
				// False pair: must be within the bound of touching.
				if dist := geom.RegionDistance(l, r, eps/4); dist > 2*eps {
					t.Errorf("false pair (%d, %d) at distance %g > bound %g", li, ri, dist, 2*eps)
				}
			}
		}
	}
	if exactPairs == 0 {
		t.Fatal("degenerate workload: no intersecting pairs")
	}
	if len(pairs) < exactPairs {
		t.Errorf("reported %d pairs, fewer than %d exact", len(pairs), exactPairs)
	}
}

func TestIntersectJoinerPairsSortedUnique(t *testing.T) {
	d, _ := sfc.NewDomain(geom.Pt(0, 0), 1024)
	rng := rand.New(rand.NewSource(2))
	regions := []geom.Region{
		randomStarRegion(rng, 300, 300, 100, 200, 8),
		randomStarRegion(rng, 350, 350, 100, 200, 8), // overlaps the first
		randomStarRegion(rng, 800, 800, 50, 100, 8),
	}
	j, err := NewIntersectJoiner(regions, regions, d, sfc.Hilbert{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	pairs := j.Pairs()
	for i := 1; i < len(pairs); i++ {
		a, b := pairs[i-1], pairs[i]
		if a == b {
			t.Fatal("duplicate pair emitted")
		}
		if a[0] > b[0] || (a[0] == b[0] && a[1] > b[1]) {
			t.Fatal("pairs not sorted")
		}
	}
	// Self-join must report every region paired with itself.
	self := map[int32]bool{}
	for _, p := range pairs {
		if p[0] == p[1] {
			self[p[0]] = true
		}
	}
	if len(self) != len(regions) {
		t.Errorf("self-pairs missing: %v", self)
	}
}

func TestPolygonsIntersectOracle(t *testing.T) {
	sq := func(x, y, s float64) *geom.Polygon {
		return geom.MustPolygon(geom.Ring{
			geom.Pt(x, y), geom.Pt(x+s, y), geom.Pt(x+s, y+s), geom.Pt(x, y+s),
		})
	}
	a := sq(0, 0, 10)
	cases := []struct {
		b    *geom.Polygon
		want bool
	}{
		{sq(5, 5, 10), true},   // overlap
		{sq(10, 0, 5), true},   // shared edge
		{sq(11, 0, 5), false},  // disjoint
		{sq(2, 2, 3), true},    // contained
		{sq(-5, -5, 30), true}, // containing
	}
	for i, c := range cases {
		if got := geom.PolygonsIntersect(a, c.b); got != c.want {
			t.Errorf("case %d: PolygonsIntersect = %v, want %v", i, got, c.want)
		}
		if got := geom.PolygonsIntersect(c.b, a); got != c.want {
			t.Errorf("case %d (swapped): PolygonsIntersect = %v, want %v", i, got, c.want)
		}
	}
	// Hole exclusion: a small square inside a's hole does not intersect.
	holed := geom.MustPolygon(
		geom.Ring{geom.Pt(0, 0), geom.Pt(20, 0), geom.Pt(20, 20), geom.Pt(0, 20)},
		geom.Ring{geom.Pt(5, 5), geom.Pt(15, 5), geom.Pt(15, 15), geom.Pt(5, 15)},
	)
	inner := sq(8, 8, 4)
	if geom.PolygonsIntersect(holed, inner) {
		t.Error("polygon inside hole reported intersecting")
	}
	crossing := sq(3, 8, 4) // straddles the hole boundary
	if !geom.PolygonsIntersect(holed, crossing) {
		t.Error("hole-crossing polygon not detected")
	}
}
