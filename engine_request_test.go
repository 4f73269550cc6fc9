package distbound

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"distbound/internal/data"
	"distbound/internal/testutil"
)

// requestFixture builds an engine over a partitioned city with a mutated
// resident dataset: appends and deletes have left tombstones, live delta
// rows and dead delta rows, so every serving structure participates.
// Weights are reassociation-proof, so SUM/AVG comparisons below are bitwise.
func requestFixture(t *testing.T) (*Engine, *Dataset, PointSet) {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	regions := dataRegions(92, 5, 5, 8)
	pts, _ := data.TaxiPoints(93, 20_000)
	weights := testutil.ExactWeights(rng, len(pts))
	e := NewEngine(regions)
	ds, err := e.RegisterPoints("req", pts[:16_000], weights[:16_000])
	if err != nil {
		t.Fatal(err)
	}
	ds.SetCompactionThreshold(0)
	ids, err := ds.Append(pts[16_000:], weights[16_000:])
	if err != nil {
		t.Fatal(err)
	}
	ds.Delete(ids[:1000]...) // dead delta rows
	ds.Delete(1, 3, 5, 7)    // base tombstones
	return e, ds, PointSet{Pts: pts, Weights: weights}
}

// TestDoMultiAggBitIdenticalToLegacy pins the acceptance criterion: one Do
// with all five aggregates returns, per aggregate, exactly what a
// single-aggregate request returns — for every strategy, on both targets,
// pre- and post-compaction.
func TestDoMultiAggBitIdenticalToLegacy(t *testing.T) {
	e, ds, ps := requestFixture(t)
	ctx := context.Background()
	allAggs := []Agg{Count, Sum, Avg, Min, Max}

	check := func(phase string) {
		t.Helper()
		for _, strat := range []Strategy{StrategyExact, StrategyACT, StrategyBRJ, StrategyPointIdx} {
			strat := strat
			aggs := allAggs
			if strat == StrategyBRJ {
				aggs = []Agg{Count, Sum, Avg}
			}
			targets := map[string]Request{
				"dataset": {Dataset: ds, Aggs: aggs, Bound: 16, Strategy: &strat},
			}
			if strat != StrategyPointIdx {
				targets["adhoc"] = Request{Points: ps, Aggs: aggs, Bound: 16, Strategy: &strat}
			}
			for name, req := range targets {
				resp, err := e.Do(ctx, req)
				if err != nil {
					t.Fatalf("%s %s %v: %v", phase, name, strat, err)
				}
				if resp.Strategy != strat {
					t.Fatalf("%s %s: override ignored, ran %v", phase, name, resp.Strategy)
				}
				if len(resp.Results) != len(aggs) {
					t.Fatalf("%s %s %v: %d results for %d aggs", phase, name, strat, len(resp.Results), len(aggs))
				}
				for k, agg := range aggs {
					single := req
					single.Aggs = []Agg{agg}
					sresp, err := e.Do(ctx, single)
					if err != nil {
						t.Fatal(err)
					}
					label := phase + " " + name + " " + strat.String() + " " + agg.String()
					testutil.CheckIdentical(t, label, sresp.Results[0], resp.Results[k])
					if resp.Results[k].Agg != agg {
						t.Fatalf("%s: result %d carries %v", label, k, resp.Results[k].Agg)
					}
				}
			}
		}
	}

	check("pre-compaction")
	ds.Compact()
	check("post-compaction")
}

func TestDoRequestValidation(t *testing.T) {
	e, ds, ps := requestFixture(t)
	ctx := context.Background()
	bad := StrategyBRJ
	pidx := StrategyPointIdx
	act := StrategyACT
	unknown := Strategy(99)
	cases := []struct {
		name string
		req  Request
	}{
		{"no aggregates", Request{Points: ps, Bound: 16}},
		{"both targets", Request{Points: ps, Dataset: ds, Aggs: []Agg{Count}, Bound: 16}},
		{"foreign dataset", Request{Dataset: &Dataset{name: "ghost", src: ds.src}, Aggs: []Agg{Count}, Bound: 16}},
		{"brj with min", Request{Points: ps, Aggs: []Agg{Count, Min}, Bound: 16, Strategy: &bad}},
		{"pointidx without dataset", Request{Points: ps, Aggs: []Agg{Count}, Bound: 16, Strategy: &pidx}},
		{"act without bound", Request{Points: ps, Aggs: []Agg{Count}, Bound: 0, Strategy: &act}},
		{"unknown strategy", Request{Points: ps, Aggs: []Agg{Count}, Bound: 16, Strategy: &unknown}},
	}
	for _, tc := range cases {
		if _, err := e.Do(ctx, tc.req); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// Repetitions is not read: any value, negative included, plans as none.
	for _, reps := range []int{-3, 0, 1, 1_000_000} {
		resp, err := e.Do(ctx, Request{Points: ps, Aggs: []Agg{Count}, Bound: 64, Repetitions: reps})
		if err != nil {
			t.Fatal(err)
		}
		if want := strategyFor(adHoc(len(ps.Pts), Count, 64)); resp.Strategy != want {
			t.Errorf("%d repetitions ran %v, no repetitions picks %v", reps, resp.Strategy, want)
		}
	}
}

// TestDoResponseMetadata: Strategy, Wall and Build ride the response;
// multi-agg sets containing MIN/MAX exclude BRJ from an ad-hoc pick
// entirely, and a dataset request runs the resident rule's pick.
func TestDoResponseMetadata(t *testing.T) {
	e, ds, ps := requestFixture(t)
	aggs := []Agg{Count, Sum, Min}
	resp, err := e.Do(context.Background(), Request{Points: ps, Aggs: aggs, Bound: 64})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != StrategyACT {
		t.Errorf("a set containing MIN ran %v, want act", resp.Strategy)
	}
	if resp.Wall <= 0 {
		t.Error("Wall timing missing")
	}

	resp, err = e.Do(context.Background(), Request{Dataset: ds, Aggs: aggs, Bound: 16})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != StrategyPointIdx {
		t.Errorf("dataset request ran %v, want pointidx", resp.Strategy)
	}
	// Cold acquisition above paid a build; a warm repeat acquires in ~0.
	if resp.Build <= 0 {
		t.Error("cold pointidx run reports no build time")
	}
}

// waitNoExtraGoroutines asserts the goroutine count settles back to (near)
// the baseline — canceled fan-outs and abandoned builds must unwind, not
// leak.
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > base %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDoCancellation covers the cancellation contract under -race: a cold
// build canceled before it completes, a warm fan-out canceled mid-query,
// prompt ctx.Err() returns, no goroutine leak, and full correctness of
// subsequent queries on the same engine.
func TestDoCancellation(t *testing.T) {
	base := runtime.NumGoroutine()
	e, ds, ps := requestFixture(t)
	act := StrategyACT
	pidx := StrategyPointIdx

	// Reference results from an engine that never sees a cancellation.
	ref := NewEngine(dataRegions(92, 5, 5, 8))
	wantResp, err := ref.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}, Bound: 16, Strategy: &act})
	if err != nil {
		t.Fatal(err)
	}

	// Cold build, pre-canceled context: the waiter withdraws immediately,
	// the abandoned build aborts, and nothing is cached.
	canceledCtx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Do(canceledCtx, Request{Points: ps, Aggs: []Agg{Count}, Bound: 16, Strategy: &act}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cold canceled Do returned %v, want context.Canceled", err)
	}
	if _, err := e.Do(canceledCtx, Request{Dataset: ds, Aggs: []Agg{Count}, Bound: 16, Strategy: &pidx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cold canceled dataset Do returned %v, want context.Canceled", err)
	}

	// Mid-build cancellation: cancel shortly after the build starts. Either
	// the query finishes first (fast machine) or it must fail with ctx.Err().
	midCtx, midCancel := context.WithCancel(context.Background())
	go func() { time.Sleep(2 * time.Millisecond); midCancel() }()
	if _, err := e.Do(midCtx, Request{Points: ps, Aggs: []Agg{Count}, Bound: 8, Strategy: &act}); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-build cancel surfaced %v, want nil or context.Canceled", err)
	}
	midCancel()

	// The engine is unharmed: cold-canceled bounds rebuild and answer
	// exactly what the never-canceled engine answers; warm queries repeat it.
	for i := 0; i < 2; i++ {
		resp, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}, Bound: 16, Strategy: &act})
		if err != nil {
			t.Fatalf("query %d after cancellations: %v", i, err)
		}
		testutil.CheckIdentical(t, "post-cancel act", wantResp.Results[0], resp.Results[0])
	}
	if _, err := e.Do(context.Background(), Request{Dataset: ds, Aggs: []Agg{Count, Sum}, Bound: 16, Strategy: &pidx}); err != nil {
		t.Fatalf("dataset query after cancellations: %v", err)
	}

	// Warm fan-out, pre-canceled context: the artifact is resident, the
	// fold itself must notice the cancellation.
	if _, err := e.Do(canceledCtx, Request{Points: ps, Aggs: []Agg{Count}, Bound: 16, Strategy: &act}); !errors.Is(err, context.Canceled) {
		t.Fatalf("warm canceled Do returned %v, want context.Canceled", err)
	}

	waitNoExtraGoroutines(t, base)
}

// TestWorkersNormalizedInOnePlace pins the Workers ≤ 0 normalization to
// Request normalization: every non-positive value behaves exactly like an
// explicit GOMAXPROCS, with no per-caller clamping left to drift. The
// resident path is deterministic for any worker count, so the results must
// be bit-identical across the spelling of "default".
func TestWorkersNormalizedInOnePlace(t *testing.T) {
	e, ds, _ := requestFixture(t)
	ctx := context.Background()
	aggs := []Agg{Count, Sum, Min, Max}
	base := Request{Dataset: ds, Aggs: aggs, Bound: 16, Workers: runtime.GOMAXPROCS(0)}

	want, err := e.Do(ctx, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-3, 0} {
		req := base
		req.Workers = workers
		got, err := e.Do(ctx, req)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		for k := range aggs {
			testutil.CheckIdentical(t, "Do default workers", want.Results[k], got.Results[k])
		}
	}
}

// TestAdhocNonFiniteWeightRejected: a NaN or ±Inf ad-hoc weight is refused
// once per call, naming its row, on every ad-hoc entry point — as the
// resident append refuses it. Accepted, one +Inf weight made the one-shot
// raster join's SUM NaN in regions whose bounding box held the point's pixel
// but which did not contain the point (0·Inf in the mask product).
func TestAdhocNonFiniteWeightRejected(t *testing.T) {
	e, _, ps := requestFixture(t)
	ctx := context.Background()
	regions := dataRegions(92, 5, 5, 8)
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := PointSet{Pts: ps.Pts, Weights: append([]float64(nil), ps.Weights...)}
		bad.Weights[1234] = w
		check := func(what string, err error) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), "weight 1234") {
				t.Errorf("weight %v, %s: err %v, want a refusal naming row 1234", w, what, err)
			}
		}
		for _, strat := range []Strategy{StrategyExact, StrategyACT, StrategyBRJ} {
			_, err := e.Do(ctx, Request{Points: bad, Aggs: []Agg{Count, Sum}, Bound: 64, Strategy: &strat})
			check("Do "+strat.String(), err)
		}
		_, err := e.Do(ctx, Request{Points: bad, Aggs: []Agg{Count}, Bound: 64})
		check("planned count-only Do", err)
		_, err = BruteForceJoin(bad, regions, Sum)
		check("BruteForceJoin", err)
	}
}

// TestBoundFinerThanLeafCellRefused: a positive bound finer than the leaf
// cell is the caller's error, typed and naming the floor, and refused before
// any cover build starts — on a resident read and a forced ad-hoc act read.
func TestBoundFinerThanLeafCellRefused(t *testing.T) {
	e, ds, ps, _ := residentFixture(t, 2000)
	floor := e.domain.CellDiagonal(MaxLevel)
	act := StrategyACT
	for _, req := range []Request{
		{Dataset: ds, Aggs: []Agg{Count}, Bound: 5e-324},
		{Points: ps, Aggs: []Agg{Count, Sum}, Bound: floor / 2, Strategy: &act},
	} {
		_, err := e.Do(context.Background(), req)
		var tf *BoundTooFineError
		if !errors.As(err, &tf) || tf.Bound != req.Bound || tf.Floor != floor ||
			!strings.Contains(err.Error(), strconv.FormatFloat(floor, 'g', -1, 64)) {
			t.Fatalf("bound %g: err %v, want a BoundTooFineError naming the floor %g", req.Bound, err, floor)
		}
	}
	if cover := e.CacheStats(); cover.Builds != 0 {
		t.Errorf("refused bounds started %d cover builds", cover.Builds)
	}
}
