package quadtree

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

func TestInsertOutsideBounds(t *testing.T) {
	tr := New(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)})
	if tr.Insert(geom.Pt(20, 20), 1) {
		t.Error("out-of-bounds insert accepted")
	}
	if !tr.Insert(geom.Pt(5, 5), 2) {
		t.Error("in-bounds insert rejected")
	}
}

func TestDuplicatePointsDoNotRecurseForever(t *testing.T) {
	tr := New(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)})
	for i := 0; i < 10*bucketSize; i++ {
		tr.Insert(geom.Pt(0.5, 0.5), int32(i))
	}
	q := geom.Rect{Min: geom.Pt(0.5, 0.5), Max: geom.Pt(0.5, 0.5)}
	if got := tr.CountRect(q); got != 10*bucketSize {
		t.Errorf("duplicate count = %d", got)
	}
}

func TestEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := Build(randomPoints(rng, 1000, 100), nil)
	n := 0
	tr.SearchRect(tr.Bounds(), func(int32, geom.Point) bool {
		n++
		return n < 7
	})
	if n != 7 {
		t.Errorf("visited %d, want 7", n)
	}
}

func TestIDsPreserved(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2)}
	tr := Build(pts, []int32{100, 200})
	found := map[int32]geom.Point{}
	tr.SearchRect(tr.Bounds(), func(id int32, p geom.Point) bool {
		found[id] = p
		return true
	})
	if !found[100].Eq(geom.Pt(1, 1)) || !found[200].Eq(geom.Pt(2, 2)) {
		t.Errorf("ids mismatch: %v", found)
	}
}

func TestSkewedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var pts []geom.Point
	for c := 0; c < 4; c++ {
		cx, cy := rng.Float64()*1000, rng.Float64()*1000
		for i := 0; i < 3000; i++ {
			pts = append(pts, geom.Pt(cx+rng.NormFloat64()*2, cy+rng.NormFloat64()*2))
		}
	}
	tr := Build(pts, nil)
	for trial := 0; trial < 50; trial++ {
		lo := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		q := geom.Rect{Min: lo, Max: geom.Pt(lo.X+100, lo.Y+100)}
		if got, want := tr.CountRect(q), bruteCount(pts, q); got != want {
			t.Fatalf("skewed: CountRect = %d, want %d", got, want)
		}
	}
}
