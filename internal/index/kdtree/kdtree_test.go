package kdtree

import (
	"math/rand"
	"testing"

	"distbound/internal/geom"
)

func randomPoints(rng *rand.Rand, n int, extent float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*extent, rng.Float64()*extent)
	}
	return pts
}

func bruteCount(pts []geom.Point, q geom.Rect) int {
	n := 0
	for _, p := range pts {
		if q.ContainsPoint(p) {
			n++
		}
	}
	return n
}

func TestSearchRectMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 20000, 1000)
	tr := Build(pts, nil)
	for trial := 0; trial < 100; trial++ {
		lo := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		sz := rng.Float64() * 200
		q := geom.Rect{Min: lo, Max: geom.Pt(lo.X+sz, lo.Y+sz)}
		if got, want := tr.CountRect(q), bruteCount(pts, q); got != want {
			t.Fatalf("trial %d: CountRect = %d, want %d", trial, got, want)
		}
	}
}

func TestSearchReturnsCorrectIDs(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(5, 5), geom.Pt(9, 9)}
	ids := []int32{10, 20, 30}
	tr := Build(pts, ids)
	var got []int32
	tr.SearchRect(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(6, 6)}, func(id int32, p geom.Point) bool {
		got = append(got, id)
		return true
	})
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	seen := map[int32]bool{}
	for _, id := range got {
		seen[id] = true
	}
	if !seen[10] || !seen[20] {
		t.Errorf("ids = %v", got)
	}
}

func TestEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := Build(randomPoints(rng, 1000, 100), nil)
	n := 0
	tr.SearchRect(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}, func(int32, geom.Point) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("visited %d, want 5", n)
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Pt(7, 7)
	}
	tr := Build(pts, nil)
	q := geom.Rect{Min: geom.Pt(7, 7), Max: geom.Pt(7, 7)}
	if got := tr.CountRect(q); got != 500 {
		t.Errorf("duplicate count = %d, want 500", got)
	}
	if got := tr.CountRect(geom.Rect{Min: geom.Pt(8, 8), Max: geom.Pt(9, 9)}); got != 0 {
		t.Errorf("empty query = %d", got)
	}
}

func TestSmallInputs(t *testing.T) {
	if tr := Build(nil, nil); tr.CountRect(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}) != 0 {
		t.Error("empty tree broken")
	}
	one := Build([]geom.Point{geom.Pt(3, 4)}, nil)
	if one.CountRect(geom.Rect{Min: geom.Pt(3, 4), Max: geom.Pt(3, 4)}) != 1 {
		t.Error("single point not found")
	}
}

func TestClusteredData(t *testing.T) {
	// Heavily skewed clusters should still query correctly.
	rng := rand.New(rand.NewSource(3))
	var pts []geom.Point
	for c := 0; c < 5; c++ {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		for i := 0; i < 2000; i++ {
			pts = append(pts, geom.Pt(cx+rng.NormFloat64(), cy+rng.NormFloat64()))
		}
	}
	tr := Build(pts, nil)
	for trial := 0; trial < 50; trial++ {
		lo := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		q := geom.Rect{Min: lo, Max: geom.Pt(lo.X+50, lo.Y+50)}
		if got, want := tr.CountRect(q), bruteCount(pts, q); got != want {
			t.Fatalf("clustered: CountRect = %d, want %d", got, want)
		}
	}
}
