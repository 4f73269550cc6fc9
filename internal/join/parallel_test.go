package join

import (
	"context"
	"math"
	"testing"

	"distbound/internal/data"
	"distbound/internal/sfc"
)

// multiJoiner is the fan-out surface the streaming joiners share.
type multiJoiner interface {
	AggregateMulti(ctx context.Context, ps PointSet, aggs []Agg, workers int) ([]Result, error)
}

// aggregateAt runs one aggregate over a point slice through AggregateMulti
// at the given worker count.
func aggregateAt(j multiJoiner, ps PointSet, agg Agg, workers int) (Result, error) {
	rs, err := j.AggregateMulti(context.Background(), ps, []Agg{agg}, workers)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// residentAggregate runs aggs over the joiner's attached dataset through
// AggregateMultiInto, the engine's resident read, into fresh results.
func residentAggregate(ctx context.Context, j *PointIdxJoiner, aggs []Agg, workers int) ([]Result, error) {
	results := NewResults(aggs, j.NumRegions())
	if _, err := j.AggregateMultiInto(ctx, aggs, workers, results); err != nil {
		return nil, err
	}
	return results, nil
}

func TestACTAggregateParallelMatchesSequential(t *testing.T) {
	ps, regions, d := testWorkload(t, 30000)
	aj, err := NewACTJoiner(regions, d, sfc.Hilbert{}, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, agg := range []Agg{Count, Sum} {
		seq, err := aj.Aggregate(ps, agg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 8, 0} {
			par, err := aggregateAt(aj, ps, agg, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range regions {
				if par.Counts[i] != seq.Counts[i] {
					t.Fatalf("%v workers=%d region %d: counts %d vs %d",
						agg, workers, i, par.Counts[i], seq.Counts[i])
				}
				if agg == Sum && math.Abs(par.Sums[i]-seq.Sums[i]) > 1e-6*math.Abs(seq.Sums[i])+1e-9 {
					t.Fatalf("%v workers=%d region %d: sums differ", agg, workers, i)
				}
			}
		}
	}
	// Validation still applies.
	if _, err := aggregateAt(aj, PointSet{Pts: ps.Pts}, Sum, 4); err == nil {
		t.Error("parallel SUM without weights accepted")
	}
}

func TestRStarAggregateParallelMatchesSequential(t *testing.T) {
	ps, regions, _ := testWorkload(t, 20000)
	rj := NewRStarJoiner(regions, 0)
	seq, err := rj.Aggregate(ps, Count)
	if err != nil {
		t.Fatal(err)
	}
	par, err := aggregateAt(rj, ps, Count, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range regions {
		if par.Counts[i] != seq.Counts[i] {
			t.Fatalf("region %d: %d vs %d", i, par.Counts[i], seq.Counts[i])
		}
	}
}

// TestBRJRunParallelMatchesSequential: tiles own disjoint pixels, so the
// cached-mask joiner fanning its tiles across workers must agree with the
// one-shot sequential BRJ.Run over the same tiling.
func TestBRJRunParallelMatchesSequential(t *testing.T) {
	bounds := data.DowntownBounds()
	pts, weights := data.TaxiPointsIn(9, 20000, bounds)
	ps := PointSet{Pts: pts, Weights: weights}
	regions := data.Regions(data.PartitionIn(10, bounds, 4, 4, 3))

	brj := BRJ{Bound: 32, Bounds: bounds, MaxTextureSize: 128} // many tiles
	seq, s1, err := brj.Run(ps, regions, Sum)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewBRJJoiner(regions, bounds, 32, 128, 0)
	if err != nil {
		t.Fatal(err)
	}
	par, err := aggregateAt(j, ps, Sum, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s2 := j.Stats(); s1.NumTiles != s2.NumTiles || s1.MaskPixels != s2.MaskPixels {
		t.Errorf("stats differ: %+v vs %+v", s1, s2)
	}
	if s1.NumTiles < 4 {
		t.Fatalf("expected multi-tile run, got %d", s1.NumTiles)
	}
	for i := range regions {
		if seq.Counts[i] != par.Counts[i] {
			t.Fatalf("region %d: counts %d vs %d", i, seq.Counts[i], par.Counts[i])
		}
		if math.Abs(seq.Sums[i]-par.Sums[i]) > 1e-6*math.Abs(seq.Sums[i])+1e-9 {
			t.Fatalf("region %d: sums differ", i)
		}
	}
}
