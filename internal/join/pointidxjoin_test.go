package join

import (
	"context"
	"fmt"
	"math"
	"testing"

	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/pointstore"
	"distbound/internal/sfc"
)

func pointIdxFixture(t *testing.T, n int, withWeights bool) (PointSet, []geom.Region, *pointstore.Mutable) {
	t.Helper()
	pts, weights := data.TaxiPoints(31, n)
	if !withWeights {
		weights = nil
	}
	ps := PointSet{Pts: pts, Weights: weights}
	regions := data.Regions(data.Partition(32, 4, 4, 6))
	store, err := pointstore.NewMutable(pts, weights, data.CityDomain(), sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	return ps, regions, store
}

// TestPointIdxMatchesACTBitIdentical pins the core agreement guarantee: the
// resident probe join and the streaming ACT join evaluate the same covers
// over the same keys, so COUNT and MIN/MAX must match bit-for-bit and
// SUM/AVG within float re-association.
func TestPointIdxMatchesACTBitIdentical(t *testing.T) {
	ps, regions, store := pointIdxFixture(t, 20000, true)
	d := data.CityDomain()
	for _, bound := range []float64{16, 64} {
		act, err := NewACTJoiner(regions, d, sfc.Hilbert{}, bound, 0)
		if err != nil {
			t.Fatal(err)
		}
		pj, err := NewPointIdxJoiner(regions, store, bound, 0)
		if err != nil {
			t.Fatal(err)
		}
		if pj.Bound() != bound || pj.NumRanges() == 0 || pj.CoverSet.MemoryBytes() <= 0 {
			t.Fatalf("bound %g: joiner accounting wrong", bound)
		}
		for _, agg := range []Agg{Count, Sum, Avg, Min, Max} {
			want, err := act.Aggregate(ps, agg)
			if err != nil {
				t.Fatal(err)
			}
			gots, err := residentAggregate(context.Background(), pj, []Agg{agg}, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := gots[0]
			for ri := range regions {
				if got.Counts[ri] != want.Counts[ri] {
					t.Fatalf("bound %g %v region %d: count %d != ACT %d",
						bound, agg, ri, got.Counts[ri], want.Counts[ri])
				}
				switch agg {
				case Min, Max:
					if got.Extremes[ri] != want.Extremes[ri] {
						t.Fatalf("bound %g %v region %d: extreme %g != ACT %g",
							bound, agg, ri, got.Extremes[ri], want.Extremes[ri])
					}
				case Sum, Avg:
					w, g := want.Value(ri), got.Value(ri)
					if math.Abs(g-w) > 1e-9*math.Max(math.Abs(w), 1) {
						t.Fatalf("bound %g %v region %d: value %g != ACT %g", bound, agg, ri, g, w)
					}
				}
			}
		}
	}
}

// TestCoverSetAggregateMultiMatchesACT: a streamed point set joined through
// the cover table answers every aggregate bit for bit what the ACT trie
// answers — both hold the same conservative cells per region, and both fold
// the same point shards in the same order. The points include every region
// vertex and every edge midpoint (each on a boundary two regions share), a
// NaN point and points outside the domain, beside ordinary ones with
// fractional signed weights, so float sums would betray any difference in
// which regions a point reaches or in what order.
func TestCoverSetAggregateMultiMatchesACT(t *testing.T) {
	polys := data.Partition(5, 4, 4, 3)
	regions := data.Regions(polys)
	d := data.CityDomain()
	pts, _ := data.TaxiPoints(7, 3000)
	for _, p := range polys {
		for i, v := range p.Outer {
			w := p.Outer[(i+1)%len(p.Outer)]
			pts = append(pts, v, geom.Pt((v.X+w.X)/2, (v.Y+w.Y)/2))
		}
	}
	pts = append(pts, geom.Pt(math.NaN(), 100), geom.Pt(-5, 100), geom.Pt(100, data.CitySize+1), geom.Pt(math.Inf(1), 0))
	weights := make([]float64, len(pts))
	for i := range weights {
		weights[i] = float64(i%13-6) * 1.37
	}
	all := []Agg{Count, Sum, Avg, Min, Max}
	ctx := context.Background()
	for _, eps := range []float64{4, 16, 64} {
		aj, err := NewACTJoiner(regions, d, sfc.Hilbert{}, eps, 0)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := NewCoverSetCtx(ctx, regions, d, sfc.Hilbert{}, eps, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ps := range []PointSet{{Pts: pts, Weights: weights}, {Pts: []geom.Point{}, Weights: []float64{}}} {
			for _, workers := range []int{1, 2, 3} {
				want, err := aj.AggregateMulti(ctx, ps, all, workers)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cs.AggregateMulti(ctx, ps, all, workers)
				if err != nil {
					t.Fatal(err)
				}
				for k, agg := range all {
					bitIdentical(t, fmt.Sprintf("ε%g %d points workers=%d %v", eps, len(ps.Pts), workers, agg), want[k], got[k])
				}
			}
		}
	}
}

// TestACTBuildUnchangedByDescent pins what the ACT build reads off the
// rasterizer on the repository benchmark's partition — total cells, boundary
// cells and the compacted trie's footprint — to the figures the decode-per-
// cell descent produced (PR 21): the trie rides whatever descent
// raster.Hierarchical runs, and a cell more or fewer shows here.
func TestACTBuildUnchangedByDescent(t *testing.T) {
	regions := data.Regions(data.Partition(1, 16, 16, 12))
	for _, want := range []struct {
		eps                    float64
		cells, boundary, bytes int
	}{
		{16, 1294318, 637893, 20160532},
		{64, 315538, 159129, 3659408},
	} {
		j, err := NewACTJoiner(regions, data.CityDomain(), sfc.Hilbert{}, want.eps, 0)
		if err != nil {
			t.Fatal(err)
		}
		if j.NumCells() != want.cells || j.boundaryCells != want.boundary || j.MemoryBytes() != want.bytes {
			t.Errorf("ε%g: %d cells, %d boundary, %d bytes; want %d, %d, %d",
				want.eps, j.NumCells(), j.boundaryCells, j.MemoryBytes(), want.cells, want.boundary, want.bytes)
		}
	}
}

// TestPointIdxWithinBoundGuarantee is the property test against ground
// truth: over random points and regions, every aggregate from the resident
// join must respect the conservative distance-bound guarantee — counts never
// undercount the exact answer, every overcounted point lies within the bound
// of the region's boundary, and MIN/MAX extremes dominate the exact ones.
func TestPointIdxWithinBoundGuarantee(t *testing.T) {
	ps, regions, store := pointIdxFixture(t, 8000, true)
	const bound = 32.0
	pj, err := NewPointIdxJoiner(regions, store, bound, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []Agg{Count, Sum, Min, Max} {
		exact, err := BruteForce(ps, regions, agg)
		if err != nil {
			t.Fatal(err)
		}
		gots, err := residentAggregate(context.Background(), pj, []Agg{agg}, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := gots[0]
		for ri, rg := range regions {
			// Conservative covers admit no false negatives: every exactly
			// contained point is counted.
			if got.Counts[ri] < exact.Counts[ri] {
				t.Fatalf("%v region %d: conservative count undercounts (%d < %d)",
					agg, ri, got.Counts[ri], exact.Counts[ri])
			}
			switch agg {
			case Min:
				if exact.Counts[ri] > 0 && got.Extremes[ri] > exact.Extremes[ri] {
					t.Fatalf("region %d: approximate MIN %g above exact %g",
						ri, got.Extremes[ri], exact.Extremes[ri])
				}
			case Max:
				if exact.Counts[ri] > 0 && got.Extremes[ri] < exact.Extremes[ri] {
					t.Fatalf("region %d: approximate MAX %g below exact %g",
						ri, got.Extremes[ri], exact.Extremes[ri])
				}
			}
			// Every overcounted point lies within the bound of the boundary:
			// check via the count of points within the dilated region.
			if agg == Count {
				var within int64
				for _, p := range ps.Pts {
					if rg.ContainsPoint(p) || rg.BoundaryDist(p) <= bound {
						within++
					}
				}
				if got.Counts[ri] > within {
					t.Fatalf("region %d: count %d exceeds points within bound %d",
						ri, got.Counts[ri], within)
				}
			}
		}
		if agg == Count {
			if med := MedianRelativeError(got, exact); med > 0.02 {
				t.Errorf("median relative COUNT error %g implausibly large", med)
			}
		}
	}
}

// TestPointIdxParallelDeterministic: region-sharded execution must return
// results identical to sequential for any worker count — including float
// sums, since each region is folded wholly by one worker.
func TestPointIdxParallelDeterministic(t *testing.T) {
	_, regions, store := pointIdxFixture(t, 10000, true)
	pj, err := NewPointIdxJoiner(regions, store, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []Agg{Count, Sum, Avg, Min, Max} {
		seqs, err := residentAggregate(context.Background(), pj, []Agg{agg}, 1)
		if err != nil {
			t.Fatal(err)
		}
		seq := seqs[0]
		for _, workers := range []int{0, 2, 7, 64} {
			pars, err := residentAggregate(context.Background(), pj, []Agg{agg}, workers)
			if err != nil {
				t.Fatal(err)
			}
			par := pars[0]
			for ri := range regions {
				if par.Counts[ri] != seq.Counts[ri] {
					t.Fatalf("%v workers=%d region %d: count drift", agg, workers, ri)
				}
				if par.Value(ri) != seq.Value(ri) {
					t.Fatalf("%v workers=%d region %d: value %g != %g",
						agg, workers, ri, par.Value(ri), seq.Value(ri))
				}
			}
		}
	}
}

func TestPointIdxValidation(t *testing.T) {
	_, regions, store := pointIdxFixture(t, 100, false)
	if _, err := NewPointIdxJoiner(regions, store, 0, 0); err == nil {
		t.Error("zero bound accepted")
	}
	pj, err := NewPointIdxJoiner(regions, store, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := residentAggregate(context.Background(), pj, []Agg{Count}, 1); err != nil {
		t.Errorf("COUNT on a weightless store failed: %v", err)
	}
	for _, agg := range []Agg{Sum, Avg, Min, Max} {
		if _, err := residentAggregate(context.Background(), pj, []Agg{agg}, 1); err == nil {
			t.Errorf("%v on a weightless store accepted", agg)
		}
	}
}
