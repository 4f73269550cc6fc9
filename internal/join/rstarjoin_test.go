package join

import (
	"context"
	"fmt"
	"math"
	"testing"

	"distbound/internal/data"
	"distbound/internal/geom"
)

// TestRStarJoinerMatchesBruteForce: the exact join refines through point
// locators, and BruteForce walks every edge of every region; the two must
// agree bit for bit on COUNT/SUM/MIN/MAX wherever the rules are delicate — on
// the partition's lattice vertices and shared-edge midpoints (counted for both
// neighbours), on hole boundaries, in either part of a MultiPolygon, in a
// Circle (no locator: its own ContainsPoint), and at NaN and out-of-domain
// points — at every worker count.
func TestRStarJoinerMatchesBruteForce(t *testing.T) {
	polys := data.Partition(7, 4, 4, 3)
	c := data.CitySize / 2
	star := func(cx, cy, r float64, n int) geom.Ring {
		ring := make(geom.Ring, n)
		for i := range ring {
			rad := r * (0.6 + 0.4*float64(i%2))
			ang := 2 * math.Pi * float64(i) / float64(n)
			ring[i] = geom.Pt(cx+rad*math.Cos(ang), cy+rad*math.Sin(ang))
		}
		return ring
	}
	holed := geom.MustPolygon(star(c, c, 9000, 14), star(c-2500, c, 1800, 6), star(c+2500, c+500, 1500, 5))
	twoParts := geom.NewMultiPolygon(
		geom.MustPolygon(star(0.2*data.CitySize, 0.7*data.CitySize, 6000, 9)),
		geom.MustPolygon(star(0.8*data.CitySize, 0.3*data.CitySize, 5000, 11), star(0.8*data.CitySize, 0.3*data.CitySize, 1200, 4)),
	)
	circle := geom.Circle{Center: geom.Pt(0.3*data.CitySize, 0.25*data.CitySize), Radius: 4000}
	regions := append(data.Regions(polys), holed, twoParts, circle)

	pts, _ := data.TaxiPoints(7, 4000)
	var rings []geom.Ring
	for _, p := range append(polys, holed) {
		rings = append(rings, p.Rings()...)
	}
	for _, p := range twoParts.Polygons {
		rings = append(rings, p.Rings()...)
	}
	for _, r := range rings {
		for i := range r {
			pts = append(pts, r[i], r.Edge(i).Midpoint())
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	pts = append(pts,
		circle.Center, geom.Pt(circle.Center.X+circle.Radius, circle.Center.Y),
		geom.Pt(nan, nan), geom.Pt(nan, c), geom.Pt(c, nan),
		geom.Pt(-1, c), geom.Pt(c, data.CitySize+1), geom.Pt(-1e12, 1e12), geom.Pt(inf, c), geom.Pt(c, -inf))
	weights := make([]float64, len(pts))
	for i := range weights {
		weights[i] = float64(1 + i%89) // integer-valued, so every association is exact
	}
	ps := PointSet{Pts: pts, Weights: weights}

	j := NewRStarJoiner(regions, 0)
	for i, r := range j.refine {
		if _, isLoc := r.(*geom.PointLocator); !isLoc {
			if _, isCircle := regions[i].(geom.Circle); !isCircle {
				t.Fatalf("region %d (%T) refines without a locator", i, regions[i])
			}
		}
	}
	aggs := []Agg{Count, Sum, Min, Max}
	want := make([]Result, len(aggs))
	for k, agg := range aggs {
		var err error
		if want[k], err = BruteForce(ps, regions, agg); err != nil {
			t.Fatal(err)
		}
	}
	var matched int64
	for _, n := range want[0].Counts {
		matched += n
	}
	if matched <= int64(len(pts)) {
		t.Fatalf("%d matches for %d points: no shared boundary was counted twice", matched, len(pts))
	}
	for _, workers := range []int{1, 2, 3} {
		got, err := j.AggregateMulti(context.Background(), ps, aggs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for k := range aggs {
			bitIdentical(t, fmt.Sprintf("workers=%d %v", workers, aggs[k]), want[k], got[k])
		}
	}
}
