package join

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/pointstore"
	"distbound/internal/sfc"
)

// bitIdentical fails unless got matches want bit-for-bit in every filled
// column — the multi-agg contract is exact equality with per-agg runs, float
// sums included, because both fold in the identical order.
func bitIdentical(t testing.TB, label string, want, got Result) {
	t.Helper()
	if got.Agg != want.Agg || len(got.Counts) != len(want.Counts) {
		t.Fatalf("%s: result shape differs", label)
	}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	for ri := range want.Counts {
		if got.Counts[ri] != want.Counts[ri] {
			t.Fatalf("%s region %d: count %d != %d", label, ri, got.Counts[ri], want.Counts[ri])
		}
		if want.Sums != nil && !same(got.Sums[ri], want.Sums[ri]) {
			t.Fatalf("%s region %d: sum %v != %v (bitwise)", label, ri, got.Sums[ri], want.Sums[ri])
		}
		if want.Extremes != nil && !same(got.Extremes[ri], want.Extremes[ri]) {
			t.Fatalf("%s region %d: extreme %v != %v (bitwise)", label, ri, got.Extremes[ri], want.Extremes[ri])
		}
	}
}

// multiFixture is pointIdxFixture with reassociation-proof integer weights:
// with integer-valued weights every association is exact and the bitwise
// comparison below holds for every joiner and worker count.
func multiFixture(t *testing.T, n int) (PointSet, []geom.Region, *pointstore.Mutable) {
	t.Helper()
	pts, _ := data.TaxiPoints(31, n)
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = float64(1 + i%97)
	}
	ps := PointSet{Pts: pts, Weights: weights}
	regions := data.Regions(data.Partition(32, 4, 4, 6))
	store, err := pointstore.NewMutable(pts, weights, data.CityDomain(), sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	return ps, regions, store
}

// TestAggregateMultiBitIdenticalToSingle pins the tentpole guarantee at the
// joiner level for every strategy: one multi-aggregate pass returns, per
// aggregate, exactly what a dedicated single-aggregate run returns.
func TestAggregateMultiBitIdenticalToSingle(t *testing.T) {
	ps, regions, store := multiFixture(t, 20000)
	d := data.CityDomain()
	const bound = 16
	allAggs := []Agg{Count, Sum, Avg, Min, Max}
	ctx := context.Background()

	act, err := NewACTJoiner(regions, d, sfc.Hilbert{}, bound, 0)
	if err != nil {
		t.Fatal(err)
	}
	exact := NewRStarJoiner(regions, 0)
	brj, err := NewBRJJoiner(regions, data.CityDomain().Bounds(), bound, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pidx, err := NewPointIdxJoiner(regions, store, bound, 0)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		run := map[string]func(aggs []Agg) ([]Result, error){
			"act":   func(aggs []Agg) ([]Result, error) { return act.AggregateMulti(ctx, ps, aggs, workers) },
			"exact": func(aggs []Agg) ([]Result, error) { return exact.AggregateMulti(ctx, ps, aggs, workers) },
			"brj":   func(aggs []Agg) ([]Result, error) { return brj.AggregateMulti(ctx, ps, aggs, workers) },
			"pointidx": func(aggs []Agg) ([]Result, error) {
				return residentAggregate(ctx, pidx, aggs, workers)
			},
		}
		for name, do := range run {
			aggs := allAggs
			if name == "brj" {
				aggs = []Agg{Count, Sum, Avg}
			}
			multi, err := do(aggs)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if len(multi) != len(aggs) {
				t.Fatalf("%s: %d results for %d aggs", name, len(multi), len(aggs))
			}
			for k, agg := range aggs {
				if multi[k].Agg != agg {
					t.Fatalf("%s: result %d carries %v, want %v", name, k, multi[k].Agg, agg)
				}
				single, err := do([]Agg{agg})
				if err != nil {
					t.Fatal(err)
				}
				bitIdentical(t, name+" "+agg.String(), single[0], multi[k])
			}
		}
	}
}

func TestAggregateMultiRejectsBadSets(t *testing.T) {
	ps, regions, store := pointIdxFixture(t, 500, true)
	d := data.CityDomain()
	ctx := context.Background()
	act, err := NewACTJoiner(regions, d, sfc.Hilbert{}, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := act.AggregateMulti(ctx, ps, nil, 1); err == nil {
		t.Error("empty aggregate set accepted")
	}
	if _, err := act.AggregateMulti(ctx, PointSet{Pts: ps.Pts}, []Agg{Count, Sum}, 1); err == nil {
		t.Error("SUM without weights accepted")
	}
	brj, err := NewBRJJoiner(regions, d.Bounds(), 16, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := brj.AggregateMulti(ctx, ps, []Agg{Count, Min}, 1); err == nil {
		t.Error("BRJ accepted a set containing MIN")
	}
	pidx, err := NewPointIdxJoiner(regions, store, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := residentAggregate(ctx, pidx, nil, 1); err == nil {
		t.Error("pointidx accepted an empty aggregate set")
	}
}

// TestAggregateMultiCancellation: a pre-canceled context must surface
// ctx.Err() from every joiner's fan-out, after all workers unwound.
func TestAggregateMultiCancellation(t *testing.T) {
	ps, regions, store := pointIdxFixture(t, 20000, true)
	d := data.CityDomain()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	act, err := NewACTJoiner(regions, d, sfc.Hilbert{}, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := act.AggregateMulti(ctx, ps, []Agg{Count}, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("act: %v, want context.Canceled", err)
	}
	exact := NewRStarJoiner(regions, 0)
	if _, err := exact.AggregateMulti(ctx, ps, []Agg{Count}, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("exact: %v, want context.Canceled", err)
	}
	brj, err := NewBRJJoiner(regions, d.Bounds(), 16, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := brj.AggregateMulti(ctx, ps, []Agg{Count}, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("brj: %v, want context.Canceled", err)
	}
	pidx, err := NewPointIdxJoiner(regions, store, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := residentAggregate(ctx, pidx, []Agg{Count}, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("pointidx: %v, want context.Canceled", err)
	}

	cs, err := NewCoverSetCtx(context.Background(), regions, d, sfc.Hilbert{}, levelOf(d, 16), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.AggregateMulti(ctx, ps, []Agg{Count}, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("cover set: %v, want context.Canceled", err)
	}

	// Canceled builds abort too.
	if _, err := NewBRJJoinerCtx(ctx, regions, d.Bounds(), 16, 0, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("NewBRJJoinerCtx: %v, want context.Canceled", err)
	}
	if _, err := NewCoverSetCtx(ctx, regions, store.Domain(), store.Curve(), levelOf(d, 16), 0); !errors.Is(err, context.Canceled) {
		t.Errorf("NewCoverSetCtx: %v, want context.Canceled", err)
	}
	if _, err := NewExactCoverCtx(ctx, regions, store.Domain(), store.Curve(), 0); !errors.Is(err, context.Canceled) {
		t.Errorf("NewExactCoverCtx: %v, want context.Canceled", err)
	}

	// A cancellation that arrives while the subtree pool runs stops both
	// cover builds inside their tasks, and no worker outlives the call.
	partition := data.Regions(data.Partition(1, 16, 16, 12))
	base := runtime.NumGoroutine()
	builds := map[string]func(context.Context) error{
		"NewCoverSetCtx": func(ctx context.Context) error {
			_, err := NewCoverSetCtx(ctx, partition, d, sfc.Hilbert{}, levelOf(d, 16), 3)
			return err
		},
		"NewExactCoverCtx": func(ctx context.Context) error {
			_, err := NewExactCoverCtx(ctx, partition, d, sfc.Hilbert{}, 3)
			return err
		},
	}
	for name, build := range builds {
		ctx, cancel := context.WithCancel(context.Background())
		// The top walk asks once; each worker's first task asks once more.
		if err := build(&cancelOnErr{Context: ctx, cancel: cancel, left: 3}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s canceled mid-pool: %v, want context.Canceled", name, err)
		}
		cancel()
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after the canceled builds", base, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// cancelOnErr is a context that cancels itself on its left-th Err call: a
// cancellation arriving at a point of the callee's own choosing.
type cancelOnErr struct {
	context.Context
	cancel func()
	left   int32
}

func (c *cancelOnErr) Err() error {
	if atomic.AddInt32(&c.left, -1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestACTBuildPooledMatchesSequential: regions rasterised on a pool are still
// inserted in region order, so the trie — its cells, its footprint and every
// answer read off it — is the one-worker build's on any host.
func TestACTBuildPooledMatchesSequential(t *testing.T) {
	ps, regions, _ := multiFixture(t, 5000)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	build := func(procs int) (*ACTJoiner, []Result) {
		runtime.GOMAXPROCS(procs) // NewACTJoiner rasterises on GOMAXPROCS workers
		j, err := NewACTJoiner(regions, data.CityDomain(), sfc.Hilbert{}, 32, 0)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := j.AggregateMulti(context.Background(), ps, []Agg{Count, Sum}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return j, rs
	}
	seq, want := build(1)
	for _, procs := range []int{2, 5} {
		j, got := build(procs)
		if j.NumCells() != seq.NumCells() || j.boundaryCells != seq.boundaryCells || j.MemoryBytes() != seq.MemoryBytes() {
			t.Errorf("GOMAXPROCS=%d: %d cells, %d boundary, %d bytes; one worker built %d, %d, %d", procs,
				j.NumCells(), j.boundaryCells, j.MemoryBytes(), seq.NumCells(), seq.boundaryCells, seq.MemoryBytes())
		}
		for k := range want {
			bitIdentical(t, fmt.Sprintf("GOMAXPROCS=%d", procs), want[k], got[k])
		}
	}
}
