package join

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
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
		if pj.NumRanges() == 0 || pj.CoverSet.MemoryBytes() <= 0 {
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

// edgePoints draws n points where a coarse-cell resolve could go wrong: the
// centres of leaf cells on a radix bucket's edge (the low 22 bits of x or y
// all 0 or all 1, so the cell is a bucket's first or last column or row), and
// points on the domain's far edges, which Domain.Coord clamps into the last
// leaf column or row.
func edgePoints(rng *rand.Rand, d sfc.Domain, n int) []geom.Point {
	const low = 1<<(sfc.MaxLevel-radixBits/2) - 1
	farX, farY := d.Origin.X+d.Size, d.Origin.Y+d.Size
	pts := make([]geom.Point, 0, n+2)
	for len(pts) < n {
		x, y := rng.Uint32()>>2, rng.Uint32()>>2
		switch rng.Intn(6) {
		case 0:
			f := rng.Float64() * d.Size
			pts = append(pts, geom.Pt(farX, d.Origin.Y+f), geom.Pt(d.Origin.X+f, farY), geom.Pt(farX, farY))
			continue
		case 1:
			x &^= low
		case 2:
			x |= low
		case 3:
			y &^= low
		case 4:
			y |= low
		default: // a bucket's corner cell
			x, y = x|low, y&^low
		}
		pts = append(pts, d.CellRect(x, y, sfc.MaxLevel).Center())
	}
	return pts[:n]
}

// TestCoverSetAggregateMultiMatchesACT: a streamed point set joined through
// the cover table answers every aggregate bit for bit what the ACT trie
// answers — both hold the same conservative cells per region, and both fold
// the same point shards in the same order. The points span three full fold
// chunks and a ragged tail, and include every region vertex and every edge
// midpoint (each on a boundary two regions share), leaf cells on radix-bucket
// edges, points clamped at the domain's far edges, a NaN point and points
// outside the domain, beside ordinary ones with fractional signed weights, so
// float sums would betray any difference in which regions a point reaches or
// in what order.
func TestCoverSetAggregateMultiMatchesACT(t *testing.T) {
	polys := data.Partition(5, 4, 4, 3)
	regions := data.Regions(polys)
	d := data.CityDomain()
	pts, _ := data.TaxiPoints(7, 3*foldChunk+777)
	for _, p := range polys {
		for i, v := range p.Outer {
			w := p.Outer[(i+1)%len(p.Outer)]
			pts = append(pts, v, geom.Pt((v.X+w.X)/2, (v.Y+w.Y)/2))
		}
	}
	pts = append(pts, edgePoints(rand.New(rand.NewSource(3)), d, 400)...)
	pts = append(pts, geom.Pt(math.NaN(), 100), geom.Pt(-5, 100), geom.Pt(100, data.CitySize+1), geom.Pt(math.Inf(1), 0))
	weights := make([]float64, len(pts))
	for i := range weights {
		weights[i] = float64(i%13-6) * 1.37
	}
	ctx := context.Background()
	for _, eps := range []float64{4, 16, 64} {
		aj, err := NewACTJoiner(regions, d, sfc.Hilbert{}, eps, 0)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := NewCoverSetCtx(ctx, regions, d, sfc.Hilbert{}, levelOf(d, eps), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, ps := range []PointSet{{Pts: pts, Weights: weights}, {Pts: []geom.Point{}, Weights: []float64{}}} {
			for _, workers := range []int{1, 2, 3} {
				checkCoverSetMatchesACT(t, fmt.Sprintf("ε%g %d points workers=%d", eps, len(ps.Pts), workers), aj, cs, ps, workers)
			}
		}
	}
}

// checkCoverSetMatchesACT holds every aggregate of the cover-set join to the
// ACT trie join's, bit for bit.
func checkCoverSetMatchesACT(t *testing.T, label string, aj *ACTJoiner, cs *CoverSet, ps PointSet, workers int) {
	t.Helper()
	ctx := context.Background()
	want, err := aj.AggregateMulti(ctx, ps, allFive, workers)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cs.AggregateMulti(ctx, ps, allFive, workers)
	if err != nil {
		t.Fatal(err)
	}
	for k, agg := range allFive {
		bitIdentical(t, fmt.Sprintf("%s %v", label, agg), want[k], got[k])
	}
}

// coverFuzzFixtures caches each (partition, bound) fixture's ACT trie and
// cover set across fuzz inputs.
var coverFuzzFixtures [4][4]struct {
	once sync.Once
	aj   *ACTJoiner
	cs   *CoverSet
}

// FuzzCoverSetMatchesACT joins up to three and a half fold chunks of taxi and
// edge points (edgePoints) over one of four partitions at one of four bounds,
// at one to four workers: every aggregate must be the ACT trie join's, bit
// for bit.
func FuzzCoverSetMatchesACT(f *testing.F) {
	f.Add(uint8(0), uint8(1), int64(1), uint16(3*foldChunk+5), uint8(1))
	f.Add(uint8(1), uint8(0), int64(2), uint16(2*foldChunk), uint8(4))
	f.Add(uint8(2), uint8(3), int64(3), uint16(77), uint8(2))
	bounds := [4]float64{8, 16, 64, 250}
	d := data.CityDomain()
	f.Fuzz(func(t *testing.T, part, bound uint8, seed int64, n uint16, workers uint8) {
		part, bound = part%4, bound%4
		fx := &coverFuzzFixtures[part][bound]
		fx.once.Do(func() {
			regions := data.Regions(data.Partition(int64(part), 2+int(part), 3, 4))
			var err error
			if fx.aj, err = NewACTJoiner(regions, d, sfc.Hilbert{}, bounds[bound], 0); err != nil {
				panic(err)
			}
			if fx.cs, err = NewCoverSetCtx(context.Background(), regions, d, sfc.Hilbert{}, levelOf(d, bounds[bound]), 0); err != nil {
				panic(err)
			}
		})
		n %= 3*foldChunk + foldChunk/2
		pts, weights := data.TaxiPoints(seed, int(n))
		rng := rand.New(rand.NewSource(seed))
		for i, p := range edgePoints(rng, d, int(n)/7) {
			pts[7*i] = p
		}
		for i := range weights {
			weights[i] = float64(rng.Intn(2001)-1000) / 64
		}
		w := 1 + int(workers%4)
		checkCoverSetMatchesACT(t, fmt.Sprintf("partition %d ε%g %d points workers=%d", part, bounds[bound], n, w),
			fx.aj, fx.cs, PointSet{Pts: pts, Weights: weights}, w)
	})
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
