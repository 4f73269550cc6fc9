package join

import (
	"sync"
	"testing"

	"distbound/internal/data"
	"distbound/internal/geom"
)

func brjWorkload(n int) (PointSet, []geom.Region, geom.Rect) {
	pts, weights := data.TaxiPoints(31, n)
	regions := data.Regions(data.Partition(32, 6, 6, 6))
	return PointSet{Pts: pts, Weights: weights}, regions, data.CityBounds()
}

func TestBRJJoinerMatchesBRJRun(t *testing.T) {
	ps, regions, bounds := brjWorkload(30000)
	for _, bound := range []float64{48, 256} {
		brj := BRJ{Bound: bound, Bounds: bounds}
		j, err := NewBRJJoiner(regions, bounds, bound, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, agg := range []Agg{Count, Sum, Avg} {
			want, _, err := brj.Run(ps, regions, agg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := j.Aggregate(ps, agg)
			if err != nil {
				t.Fatal(err)
			}
			for ri := range regions {
				if got.Counts[ri] != want.Counts[ri] {
					t.Fatalf("bound=%g %v region %d: cached %d, one-shot %d",
						bound, agg, ri, got.Counts[ri], want.Counts[ri])
				}
				// Sequential iteration order matches BRJ.Run exactly, so
				// sums — and hence values — must be bit-identical too.
				if got.Value(ri) != want.Value(ri) {
					t.Fatalf("bound=%g %v region %d: cached value %g, one-shot %g",
						bound, agg, ri, got.Value(ri), want.Value(ri))
				}
			}
		}
	}
}

func TestBRJJoinerTiledMatchesUntiled(t *testing.T) {
	ps, regions, bounds := brjWorkload(20000)
	// A tiny texture cap forces many passes; results must not change.
	big, err := NewBRJJoiner(regions, bounds, 64, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewBRJJoiner(regions, bounds, 64, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if small.Stats().NumTiles <= big.Stats().NumTiles {
		t.Fatalf("texture cap did not tile: %d vs %d tiles",
			small.Stats().NumTiles, big.Stats().NumTiles)
	}
	a, err := big.Aggregate(ps, Count)
	if err != nil {
		t.Fatal(err)
	}
	b, err := aggregateAt(small, ps, Count, 4)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range regions {
		if a.Counts[ri] != b.Counts[ri] {
			t.Fatalf("region %d: untiled %d, tiled-parallel %d", ri, a.Counts[ri], b.Counts[ri])
		}
	}
}

func TestBRJJoinerConcurrentUse(t *testing.T) {
	ps, regions, bounds := brjWorkload(10000)
	j, err := NewBRJJoiner(regions, bounds, 48, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := j.Aggregate(ps, Count)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := aggregateAt(j, ps, Count, 2)
				if err != nil {
					t.Error(err)
					return
				}
				for ri := range regions {
					if got.Counts[ri] != want.Counts[ri] {
						t.Errorf("concurrent run diverged at region %d", ri)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestBRJJoinerRejectsExtremes(t *testing.T) {
	ps, regions, bounds := brjWorkload(100)
	j, err := NewBRJJoiner(regions, bounds, 64, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Aggregate(ps, Min); err == nil {
		t.Error("MIN accepted by raster join")
	}
	if _, err := NewBRJJoiner(regions, bounds, 0, 0, 0); err == nil {
		t.Error("zero bound accepted")
	}
}

func TestBRJJoinerAccounting(t *testing.T) {
	_, regions, bounds := brjWorkload(0)
	j, err := NewBRJJoiner(regions, bounds, 64, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if j.Bound() != 64 || st.MaskPixels <= 0 || j.MemoryBytes() <= 0 {
		t.Errorf("accounting wrong: bound=%g stats=%+v mem=%d", j.Bound(), st, j.MemoryBytes())
	}
}
