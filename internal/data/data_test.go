package data

import (
	"math"
	"math/rand"
	"testing"

	"distbound/internal/geom"
)

func TestTaxiPointsDeterministicAndInBounds(t *testing.T) {
	pts1, w1 := TaxiPoints(7, 5000)
	pts2, w2 := TaxiPoints(7, 5000)
	if len(pts1) != 5000 || len(w1) != 5000 {
		t.Fatalf("lengths: %d %d", len(pts1), len(w1))
	}
	bounds := CityBounds()
	for i := range pts1 {
		if !pts1[i].Eq(pts2[i]) || w1[i] != w2[i] {
			t.Fatal("same seed produced different data")
		}
		if !bounds.ContainsPoint(pts1[i]) {
			t.Fatalf("point %v outside city", pts1[i])
		}
		if w1[i] <= 0 {
			t.Fatalf("non-positive weight %v", w1[i])
		}
	}
	pts3, _ := TaxiPoints(8, 5000)
	same := 0
	for i := range pts3 {
		if pts3[i].Eq(pts1[i]) {
			same++
		}
	}
	if same > 100 {
		t.Errorf("different seeds produced %d identical points", same)
	}
}

func TestTaxiPointsAreSkewed(t *testing.T) {
	// Hotspot clustering: a 16x16 histogram should be far from uniform.
	pts, _ := TaxiPoints(42, 20000)
	var hist [16][16]int
	for _, p := range pts {
		x := int(p.X / CitySize * 16)
		y := int(p.Y / CitySize * 16)
		if x > 15 {
			x = 15
		}
		if y > 15 {
			y = 15
		}
		hist[x][y]++
	}
	maxBin := 0
	for _, row := range hist {
		for _, v := range row {
			if v > maxBin {
				maxBin = v
			}
		}
	}
	mean := 20000.0 / 256
	if float64(maxBin) < 4*mean {
		t.Errorf("max bin %d not skewed vs mean %.1f", maxBin, mean)
	}
}

func TestPartitionIsExactCover(t *testing.T) {
	polys := Partition(3, 6, 5, 3)
	if len(polys) != 30 {
		t.Fatalf("count = %d", len(polys))
	}
	// Areas sum to the city area (partition property).
	var area float64
	for _, p := range polys {
		area += p.Area()
	}
	if math.Abs(area-CitySize*CitySize) > 1 {
		t.Errorf("area sum %v vs city %v", area, CitySize*CitySize)
	}
	// Every probe point belongs to ≥1 polygon (boundaries can belong to 2).
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		pt := geom.Pt(rng.Float64()*CitySize, rng.Float64()*CitySize)
		owners := 0
		for _, p := range polys {
			if p.ContainsPoint(pt) {
				owners++
			}
		}
		if owners == 0 {
			t.Fatalf("point %v not covered by any polygon", pt)
		}
		if owners > 2 {
			t.Fatalf("point %v covered by %d polygons", pt, owners)
		}
	}
}

func TestPartitionRingsAreSimple(t *testing.T) {
	// No self-intersections: check every non-adjacent edge pair on a coarse
	// partition with strong jitter.
	polys := Partition(9, 4, 4, 6)
	for pi, p := range polys {
		r := p.Outer
		n := len(r)
		for i := 0; i < n; i++ {
			for j := i + 2; j < n; j++ {
				if i == 0 && j == n-1 {
					continue // adjacent via wraparound
				}
				if r.Edge(i).Intersects(r.Edge(j)) {
					t.Fatalf("polygon %d: edges %d and %d intersect", pi, i, j)
				}
			}
		}
	}
}

func TestPresetStatisticsMatchPaper(t *testing.T) {
	b := Boroughs(1)
	if len(b) != 5 {
		t.Errorf("boroughs = %d", len(b))
	}
	if mv := MeanVertices(b); math.Abs(mv-663) > 10 {
		t.Errorf("borough mean vertices = %v, want ≈663", mv)
	}
	nb := Neighborhoods(1)
	if len(nb) != 289 {
		t.Errorf("neighborhoods = %d", len(nb))
	}
	if mv := MeanVertices(nb); math.Abs(mv-30.6) > 3 {
		t.Errorf("neighborhood mean vertices = %v, want ≈30.6", mv)
	}
	c := Census(1, 2000)
	if len(c) != 2000 {
		t.Errorf("census = %d", len(c))
	}
	if mv := MeanVertices(c); math.Abs(mv-13.6) > 2 {
		t.Errorf("census mean vertices = %v, want ≈13.6", mv)
	}
}

func TestNeighborhoodRegions260(t *testing.T) {
	regions := NeighborhoodRegions260In(1, CityBounds())
	if len(regions) != 260 {
		t.Fatalf("regions = %d", len(regions))
	}
	multi := 0
	for _, r := range regions {
		if m, ok := r.(*geom.MultiPolygon); ok {
			multi++
			if len(m.Polygons) != 2 {
				t.Errorf("multipolygon with %d parts", len(m.Polygons))
			}
		}
	}
	if multi != 29 {
		t.Errorf("multipolygon regions = %d, want 29", multi)
	}
	// Total coverage unchanged: the union still covers the city.
	var area float64
	for _, r := range regions {
		area += r.Area()
	}
	if math.Abs(area-CitySize*CitySize) > 1 {
		t.Errorf("area sum %v vs city", area)
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	if Partition(1, 0, 5, 2) != nil {
		t.Error("invalid cols accepted")
	}
	one := Partition(1, 1, 1, 0)
	if len(one) != 1 || one[0].NumVertices() != 4 {
		t.Errorf("1x1 partition wrong: %v", one)
	}
	if got := Census(1, 0); len(got) != 1 {
		t.Errorf("Census(0) = %d polys", len(got))
	}
	if MeanVertices(nil) != 0 {
		t.Error("MeanVertices(nil) != 0")
	}
}

func TestRegionsHelper(t *testing.T) {
	polys := Census(1, 10)
	regions := Regions(polys)
	if len(regions) != 10 {
		t.Fatal("length mismatch")
	}
	if regions[0].Area() != polys[0].Area() {
		t.Error("region adapter broken")
	}
}
