package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"distbound"
	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/join"
	"distbound/internal/pointstore"
	"distbound/internal/sfc"
)

// loadConfig parameterizes the -concurrency serving benchmark: N client
// goroutines drive one shared Engine with mixed-bound queries and the run
// reports throughput and latency percentiles — the serving-layer complement
// of the paper-reproduction experiments.
type loadConfig struct {
	seed        int64
	numPoints   int
	censusCount int
	concurrency int
	duration    time.Duration
	bounds      []float64
	agg         distbound.Agg
	repetitions int
	batch       int
	workers     int
	queryPoints int
	resident    bool
	multiagg    bool
	jsonPath    string

	// persist checkpoints the resident dataset to disk after the load
	// phase, logs a mutation tail, reopens it in a second engine and
	// verifies bit-identical serving — the durability smoke test.
	persist bool

	ingest           bool
	ingestBatch      int
	compactThreshold int

	// skew > 0 replaces the census regions with rectangles whose sizes —
	// and therefore distance-bounded cover sizes — follow a Zipf law with
	// this exponent: a few giant regions over a long tail of tiny ones, the
	// workload that used to pin p99 behind whichever worker drew the giant
	// under region-count sharding.
	skew float64

	// calibrate fits the planner's cost model to this host before the load
	// phase and reports the fitted constants plus a calibrated-vs-default
	// strategy diff.
	calibrate bool

	// cache runs the repeated-workload result-cache benchmark: a Zipf mix of
	// request shapes driven twice — cache off, then cache on — reporting hit
	// rate and cached-vs-executed latency. Outside -cache mode the result
	// cache is disabled for the whole run, so BENCH_resident keeps measuring
	// the fold path rather than memcpy from a warm entry.
	cache bool
}

// zipfRegions builds n rectangle regions whose side lengths decay as
// 1/rank^s over the city bounds: region 0 spans a quarter of the domain,
// the tail shrinks toward single cells. The resulting cover-range counts
// are what the cost-weighted partitioning has to balance.
func zipfRegions(seed int64, n int, s float64) []distbound.Region {
	rng := rand.New(rand.NewSource(seed))
	b := data.CityBounds()
	out := make([]distbound.Region, 0, n)
	for i := 0; i < n; i++ {
		frac := 0.25 / math.Pow(float64(i+1), s)
		w, h := b.Width()*frac, b.Height()*frac
		x0 := b.Min.X + rng.Float64()*(b.Width()-w)
		y0 := b.Min.Y + rng.Float64()*(b.Height()-h)
		poly, err := geom.NewPolygon(geom.Ring{
			geom.Pt(x0, y0), geom.Pt(x0+w, y0), geom.Pt(x0+w, y0+h), geom.Pt(x0, y0+h),
		})
		if err != nil {
			panic(err) // axis-aligned rectangles are always simple rings
		}
		out = append(out, poly)
	}
	return out
}

// parseBounds parses a comma-separated bound list ("0,16,64").
func parseBounds(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad bound %q: %w", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseAgg maps an aggregate name to its Agg.
func parseAgg(s string) (distbound.Agg, error) {
	switch strings.ToLower(s) {
	case "count":
		return distbound.Count, nil
	case "sum":
		return distbound.Sum, nil
	case "avg":
		return distbound.Avg, nil
	case "min":
		return distbound.Min, nil
	case "max":
		return distbound.Max, nil
	default:
		return 0, fmt.Errorf("unknown aggregate %q", s)
	}
}

// querySlice is one client query: a contiguous window of the point pool,
// simulating per-tenant or per-time-slice subsets.
func (cfg loadConfig) querySlice(ps distbound.PointSet, rng *rand.Rand) distbound.PointSet {
	n := cfg.queryPoints
	if n <= 0 || n >= len(ps.Pts) {
		return ps
	}
	off := rng.Intn(len(ps.Pts) - n + 1)
	out := distbound.PointSet{Pts: ps.Pts[off : off+n]}
	if ps.Weights != nil {
		out.Weights = ps.Weights[off : off+n]
	}
	return out
}

// verifyPaths checks, per bound, that the sequential, parallel and batched
// execution paths return identical counts on one shared warm engine.
func verifyPaths(e *distbound.Engine, ps distbound.PointSet, cfg loadConfig) error {
	for _, bound := range cfg.bounds {
		// Warm twice so caches and plans are stable before comparing.
		for i := 0; i < 2; i++ {
			if _, _, err := e.Aggregate(ps, cfg.agg, bound, cfg.repetitions); err != nil {
				return fmt.Errorf("warmup bound %g: %w", bound, err)
			}
		}
		e.SetWorkers(1)
		seq, seqStrat, err := e.Aggregate(ps, cfg.agg, bound, cfg.repetitions)
		if err != nil {
			return fmt.Errorf("sequential bound %g: %w", bound, err)
		}
		e.SetWorkers(0)
		par, parStrat, err := e.Aggregate(ps, cfg.agg, bound, cfg.repetitions)
		if err != nil {
			return fmt.Errorf("parallel bound %g: %w", bound, err)
		}
		// A single-query batch earns no same-bound sharing credit, so it
		// plans with exactly the same effective repetitions as the
		// sequential call — count equality compares like with like for any
		// -reps value, including 1.
		batch := e.AggregateBatch([]distbound.BatchQuery{
			{Points: ps, Agg: cfg.agg, Bound: bound, Repetitions: cfg.repetitions},
		}, 1)
		for i, r := range batch {
			if r.Err != nil {
				return fmt.Errorf("batched bound %g query %d: %w", bound, i, r.Err)
			}
		}
		if seqStrat != parStrat {
			return fmt.Errorf("bound %g: strategy drifted between sequential (%v) and parallel (%v)",
				bound, seqStrat, parStrat)
		}
		// Count equality is only promised plan-for-plan; with identical
		// effective repetitions and warm caches, the batch must plan the
		// sequential strategy — anything else is a real planning bug.
		if batch[0].Strategy != seqStrat {
			return fmt.Errorf("bound %g: batched query planned %v, sequential planned %v",
				bound, batch[0].Strategy, seqStrat)
		}
		for ri := range seq.Counts {
			if seq.Counts[ri] != par.Counts[ri] {
				return fmt.Errorf("bound %g region %d: parallel count %d != sequential %d",
					bound, ri, par.Counts[ri], seq.Counts[ri])
			}
			if err := valuesMatch(cfg.agg, seq, par, ri); err != nil {
				return fmt.Errorf("bound %g region %d parallel: %w", bound, ri, err)
			}
			if batch[0].Result.Counts[ri] != seq.Counts[ri] {
				return fmt.Errorf("bound %g region %d: batched count %d != sequential %d",
					bound, ri, batch[0].Result.Counts[ri], seq.Counts[ri])
			}
			if err := valuesMatch(cfg.agg, seq, batch[0].Result, ri); err != nil {
				return fmt.Errorf("bound %g region %d batched: %w", bound, ri, err)
			}
		}
	}
	return nil
}

// valuesMatch compares one region's aggregate value between execution
// paths. MIN/MAX extremes merge without float reassociation, so they must
// match exactly; SUM/AVG differ only by the order additions associate, so
// they get a tight relative tolerance.
func valuesMatch(agg distbound.Agg, want, got distbound.Result, ri int) error {
	w, g := want.Value(ri), got.Value(ri)
	switch agg {
	case distbound.Sum, distbound.Avg:
		tol := 1e-9 * math.Max(math.Abs(w), 1)
		if math.Abs(g-w) > tol {
			return fmt.Errorf("value %g != %g beyond reassociation tolerance", g, w)
		}
	default:
		if g != w {
			return fmt.Errorf("value %g != %g", g, w)
		}
	}
	return nil
}

// verifyResident checks, per bound, that the sequential, parallel and
// batched resident paths return bit-identical results (per-region probes
// are deterministic for any worker count).
func verifyResident(e *distbound.Engine, ds *distbound.Dataset, cfg loadConfig) error {
	for _, bound := range cfg.bounds {
		if bound <= 0 {
			continue
		}
		for i := 0; i < 2; i++ { // warm covers and plans
			if _, _, err := e.AggregateDataset(ds, cfg.agg, bound, cfg.repetitions); err != nil {
				return fmt.Errorf("resident warmup bound %g: %w", bound, err)
			}
		}
		e.SetWorkers(1)
		seq, seqStrat, err := e.AggregateDataset(ds, cfg.agg, bound, cfg.repetitions)
		if err != nil {
			return fmt.Errorf("resident sequential bound %g: %w", bound, err)
		}
		e.SetWorkers(0)
		par, parStrat, err := e.AggregateDataset(ds, cfg.agg, bound, cfg.repetitions)
		if err != nil {
			return fmt.Errorf("resident parallel bound %g: %w", bound, err)
		}
		if seqStrat != parStrat {
			return fmt.Errorf("resident bound %g: strategy drifted between sequential (%v) and parallel (%v)",
				bound, seqStrat, parStrat)
		}
		batch := e.AggregateBatch([]distbound.BatchQuery{
			{Dataset: ds, Agg: cfg.agg, Bound: bound, Repetitions: cfg.repetitions},
		}, 1)
		if batch[0].Err != nil {
			return fmt.Errorf("resident batched bound %g: %w", bound, batch[0].Err)
		}
		if batch[0].Strategy != seqStrat {
			return fmt.Errorf("resident bound %g: batched query planned %v, sequential planned %v",
				bound, batch[0].Strategy, seqStrat)
		}
		for ri := range seq.Counts {
			if par.Counts[ri] != seq.Counts[ri] || batch[0].Result.Counts[ri] != seq.Counts[ri] {
				return fmt.Errorf("resident bound %g region %d: counts disagree (seq %d par %d batch %d)",
					bound, ri, seq.Counts[ri], par.Counts[ri], batch[0].Result.Counts[ri])
			}
			if err := valuesMatch(cfg.agg, seq, par, ri); err != nil {
				return fmt.Errorf("resident bound %g region %d parallel: %w", bound, ri, err)
			}
			if err := valuesMatch(cfg.agg, seq, batch[0].Result, ri); err != nil {
				return fmt.Errorf("resident bound %g region %d batched: %w", bound, ri, err)
			}
		}
	}
	return nil
}

// pathComparison is one bound's repetition-heavy head-to-head between the
// streaming and resident paths.
type pathComparison struct {
	Bound             float64 `json:"bound"`
	StreamingStrategy string  `json:"streaming_strategy"`
	ResidentStrategy  string  `json:"resident_strategy"`
	StreamingMS       float64 `json:"streaming_ms_per_query"`
	ResidentMS        float64 `json:"resident_ms_per_query"`
	Speedup           float64 `json:"speedup"`
}

// compareResident times the streaming Aggregate path against the resident
// AggregateDataset path on the full pool, per bound, on warm caches — the
// repetition-heavy serving scenario the resident strategy exists for.
func compareResident(e *distbound.Engine, ds *distbound.Dataset, pool distbound.PointSet, cfg loadConfig) []pathComparison {
	const reps = 5
	var out []pathComparison
	for _, bound := range cfg.bounds {
		if bound <= 0 {
			continue
		}
		var c pathComparison
		c.Bound = bound
		// Warm both paths so each is measured with its build cost paid.
		if _, _, err := e.Aggregate(pool, cfg.agg, bound, cfg.repetitions); err != nil {
			fmt.Printf("head-to-head bound %g: streaming warmup failed: %v\n", bound, err)
			continue
		}
		if _, _, err := e.AggregateDataset(ds, cfg.agg, bound, cfg.repetitions); err != nil {
			fmt.Printf("head-to-head bound %g: resident warmup failed: %v\n", bound, err)
			continue
		}
		timed := func(run func() (distbound.Strategy, error)) (float64, string, error) {
			t0 := time.Now()
			var strat distbound.Strategy
			for i := 0; i < reps; i++ {
				var err error
				if strat, err = run(); err != nil {
					return 0, "", err
				}
			}
			return float64(time.Since(t0).Microseconds()) / 1e3 / reps, strat.String(), nil
		}
		var err error
		c.StreamingMS, c.StreamingStrategy, err = timed(func() (distbound.Strategy, error) {
			_, strat, err := e.Aggregate(pool, cfg.agg, bound, cfg.repetitions)
			return strat, err
		})
		if err != nil {
			fmt.Printf("head-to-head bound %g: streaming run failed: %v\n", bound, err)
			continue
		}
		c.ResidentMS, c.ResidentStrategy, err = timed(func() (distbound.Strategy, error) {
			_, strat, err := e.AggregateDataset(ds, cfg.agg, bound, cfg.repetitions)
			return strat, err
		})
		if err != nil {
			fmt.Printf("head-to-head bound %g: resident run failed: %v\n", bound, err)
			continue
		}
		if c.ResidentMS > 0 {
			c.Speedup = c.StreamingMS / c.ResidentMS
		}
		fmt.Printf("head-to-head bound %g: streaming(%s)=%.1fms resident(%s)=%.1fms speedup=%.1f×\n",
			c.Bound, c.StreamingStrategy, c.StreamingMS, c.ResidentStrategy, c.ResidentMS, c.Speedup)
		out = append(out, c)
	}
	return out
}

// coverPlanComparison is one bound's head-to-head between the per-region
// reference execution and the global cover-plan execution on the same
// joiner and snapshot.
type coverPlanComparison struct {
	Bound          float64 `json:"bound"`
	Ranges         int     `json:"ranges"`
	UniqueRanges   int     `json:"unique_ranges"`
	BoundaryProbes int     `json:"boundary_probes"`
	PerRegionMS    float64 `json:"per_region_ms_per_query"`
	CoverPlanMS    float64 `json:"cover_plan_ms_per_query"`
	Speedup        float64 `json:"speedup"`
}

// compareCoverPlan times the per-region reference execution against the
// cover-plan execution, per bound, single-threaded on both sides so the
// measured gap is the plan's (sweep + dedup + inverted delta), not the
// partitioning's. It deliberately builds a private store over the pool —
// one extra sort+index build and a second copy of the columns — so the
// engine's caches and the registered dataset stay untouched by the
// head-to-head (the library does not expose its internal store handle,
// and a bench is not a reason to widen that surface).
func compareCoverPlan(regions []distbound.Region, pool distbound.PointSet, cfg loadConfig) []coverPlanComparison {
	const reps = 3
	store, err := pointstore.NewMutable(pool.Pts, pool.Weights, data.CityDomain(), sfc.Hilbert{})
	if err != nil {
		fmt.Printf("cover-plan head-to-head: store build failed: %v\n", err)
		return nil
	}
	ctx := context.Background()
	aggs := []distbound.Agg{distbound.Count, distbound.Sum}
	var out []coverPlanComparison
	for _, bound := range cfg.bounds {
		if bound <= 0 {
			continue
		}
		pj, err := join.NewPointIdxJoiner(regions, store, bound, 0)
		if err != nil {
			fmt.Printf("cover-plan head-to-head bound %g: %v\n", bound, err)
			continue
		}
		c := coverPlanComparison{
			Bound:          bound,
			Ranges:         pj.NumRanges(),
			UniqueRanges:   pj.NumUniqueRanges(),
			BoundaryProbes: pj.NumBoundaryProbes(),
		}
		timed := func(run func() error) (float64, bool) {
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				if err := run(); err != nil {
					fmt.Printf("cover-plan head-to-head bound %g: %v\n", bound, err)
					return 0, false
				}
			}
			return float64(time.Since(t0).Microseconds()) / 1e3 / reps, true
		}
		var ok bool
		if c.PerRegionMS, ok = timed(func() error {
			_, err := pj.AggregateMultiPerRegion(ctx, aggs, 1)
			return err
		}); !ok {
			continue
		}
		results := join.NewResults(aggs, len(regions))
		if c.CoverPlanMS, ok = timed(func() error {
			// Execution against execution: without the drop every repeat
			// after the first would be the joiner's warm merge.
			pj.DropPartials()
			_, err := pj.AggregateMultiInto(ctx, aggs, 1, results)
			return err
		}); !ok {
			continue
		}
		if c.CoverPlanMS > 0 {
			c.Speedup = c.PerRegionMS / c.CoverPlanMS
		}
		fmt.Printf("cover-plan bound %g: %d ranges → %d unique (%d boundaries); per-region=%.1fms plan=%.1fms speedup=%.1f×\n",
			c.Bound, c.Ranges, c.UniqueRanges, c.BoundaryProbes, c.PerRegionMS, c.CoverPlanMS, c.Speedup)
		out = append(out, c)
	}
	return out
}

// multiAggComparison is one bound's head-to-head between a single Do
// carrying all five aggregates and five sequential single-aggregate calls.
type multiAggComparison struct {
	Bound        float64 `json:"bound"`
	Strategy     string  `json:"strategy"`
	SinglePassMS float64 `json:"single_pass_ms"`
	SequentialMS float64 `json:"sequential_ms"`
	Speedup      float64 `json:"speedup"`
}

// compareMultiAgg times Engine.Do with the full aggregate set against five
// sequential single-aggregate Do calls, per bound, on warm caches — the
// one-plan / one-build / one-fold economy the Request API exists for. With
// -resident the head-to-head runs on the registered dataset, otherwise on
// the ad-hoc pool.
func compareMultiAgg(e *distbound.Engine, ds *distbound.Dataset, pool distbound.PointSet, cfg loadConfig) []multiAggComparison {
	const reps = 5
	ctx := context.Background()
	allAggs := []distbound.Agg{distbound.Count, distbound.Sum, distbound.Avg, distbound.Min, distbound.Max}
	var out []multiAggComparison
	for _, bound := range cfg.bounds {
		if bound <= 0 {
			continue
		}
		base := distbound.Request{Aggs: allAggs, Bound: bound, Repetitions: cfg.repetitions}
		if ds != nil {
			base.Dataset = ds
		} else {
			base.Points = pool
		}
		// Warm plans and artifacts on BOTH sides so the timed loops measure
		// folds only: the single-agg requests plan independently of the set
		// (a Count alone may pick BRJ where the Min-carrying set cannot), so
		// each side must build its own artifacts before the clock starts.
		warm, err := e.Do(ctx, base)
		if err != nil {
			fmt.Printf("multi-agg bound %g: warmup failed: %v\n", bound, err)
			continue
		}
		warmupOK := true
		for _, agg := range allAggs {
			req := base
			req.Aggs = []distbound.Agg{agg}
			if _, err := e.Do(ctx, req); err != nil {
				fmt.Printf("multi-agg bound %g: %v warmup failed: %v\n", bound, agg, err)
				warmupOK = false
				break
			}
		}
		if !warmupOK {
			continue
		}
		// Strategy labels the single-pass side; sequential calls may run a
		// different plan per aggregate.
		c := multiAggComparison{Bound: bound, Strategy: warm.Strategy.String()}

		t0 := time.Now()
		for i := 0; i < reps; i++ {
			if _, err := e.Do(ctx, base); err != nil {
				fmt.Printf("multi-agg bound %g: single-pass run failed: %v\n", bound, err)
				return out
			}
		}
		c.SinglePassMS = float64(time.Since(t0).Microseconds()) / 1e3 / reps

		t0 = time.Now()
		for i := 0; i < reps; i++ {
			for _, agg := range allAggs {
				req := base
				req.Aggs = []distbound.Agg{agg}
				if _, err := e.Do(ctx, req); err != nil {
					fmt.Printf("multi-agg bound %g: sequential run failed: %v\n", bound, err)
					return out
				}
			}
		}
		c.SequentialMS = float64(time.Since(t0).Microseconds()) / 1e3 / reps
		if c.SinglePassMS > 0 {
			c.Speedup = c.SequentialMS / c.SinglePassMS
		}
		fmt.Printf("multi-agg bound %g (%s): single-pass=%.1fms sequential×5=%.1fms speedup=%.1f×\n",
			c.Bound, c.Strategy, c.SinglePassMS, c.SequentialMS, c.Speedup)
		out = append(out, c)
	}
	return out
}

// cacheBenchJSON is the result_cache section of BENCH_cache.json: the
// repeated-workload head-to-head between executed and cache-served queries.
type cacheBenchJSON struct {
	Shapes        int     `json:"shapes"`
	Queries       int     `json:"queries"`
	ZipfExponent  float64 `json:"zipf_exponent"`
	HitRate       float64 `json:"hit_rate"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Evictions     int64   `json:"evictions"`
	ExecutedP50MS float64 `json:"executed_p50_ms"`
	ExecutedP99MS float64 `json:"executed_p99_ms"`
	CachedP50MS   float64 `json:"cached_p50_ms"`
	CachedP99MS   float64 `json:"cached_p99_ms"`
	SpeedupP50    float64 `json:"speedup_p50"`
}

// benchResultCache drives a Zipf-weighted mix of request shapes (bound ×
// aggregate set) over the resident dataset twice — once with the result
// cache disabled (every query folds) and once enabled (the popular shapes
// serve from cache) — on the same warmed cover artifacts, so the gap is
// exactly what the cache saves a repeated workload.
func benchResultCache(e *distbound.Engine, ds *distbound.Dataset, cfg loadConfig) *cacheBenchJSON {
	ctx := context.Background()
	aggSets := [][]distbound.Agg{
		{distbound.Count},
		{distbound.Sum},
		{distbound.Avg},
		{distbound.Min, distbound.Max},
		{distbound.Count, distbound.Sum, distbound.Avg, distbound.Min, distbound.Max},
	}
	var shapes []distbound.Request
	for _, bound := range cfg.bounds {
		if bound <= 0 {
			continue
		}
		for _, aggs := range aggSets {
			shapes = append(shapes, distbound.Request{
				Dataset: ds, Aggs: aggs, Bound: bound, Repetitions: cfg.repetitions,
			})
		}
	}
	if len(shapes) == 0 {
		fmt.Println("result-cache bench: no positive bounds; skipping")
		return nil
	}
	// The Zipf mix: a few hot shapes over a long cold tail — the repeated
	// dashboard/tile workload the result cache exists for.
	const zipfS = 1.2
	const queries = 2000
	rng := rand.New(rand.NewSource(cfg.seed + 99))
	z := rand.NewZipf(rng, zipfS, 1, uint64(len(shapes)-1))
	order := make([]int, queries)
	for i := range order {
		order[i] = int(z.Uint64())
	}

	run := func() ([]time.Duration, error) {
		lats := make([]time.Duration, 0, queries)
		for _, si := range order {
			t0 := time.Now()
			resp, err := e.Do(ctx, shapes[si])
			if err != nil {
				return nil, err
			}
			resp.Release()
			lats = append(lats, time.Since(t0))
		}
		sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
		return lats, nil
	}
	// Nanosecond resolution: cache hits are sub-microsecond, and rounding
	// them to zero would degenerate the speedup ratio.
	pct := func(lats []time.Duration, p float64) float64 {
		return float64(lats[int(p*float64(len(lats)-1))].Nanoseconds()) / 1e6
	}

	// Warm every shape's cover artifacts with the cache off, so the executed
	// phase measures folds on warm plans, not artifact builds.
	e.SetResultCacheCapacity(0)
	for si := range shapes {
		resp, err := e.Do(ctx, shapes[si])
		if err != nil {
			fmt.Printf("result-cache bench: warmup failed: %v\n", err)
			return nil
		}
		resp.Release()
	}
	executed, err := run()
	if err != nil {
		fmt.Printf("result-cache bench: executed phase failed: %v\n", err)
		return nil
	}

	e.SetResultCacheCapacity(distbound.DefaultResultCacheCapacity)
	before := e.ResultCacheStats()
	cached, err := run()
	if err != nil {
		fmt.Printf("result-cache bench: cached phase failed: %v\n", err)
		return nil
	}
	st := e.ResultCacheStats()

	out := &cacheBenchJSON{
		Shapes:        len(shapes),
		Queries:       queries,
		ZipfExponent:  zipfS,
		Hits:          st.Hits - before.Hits,
		Misses:        st.Misses - before.Misses,
		Evictions:     st.Evictions - before.Evictions,
		ExecutedP50MS: pct(executed, 0.50),
		ExecutedP99MS: pct(executed, 0.99),
		CachedP50MS:   pct(cached, 0.50),
		CachedP99MS:   pct(cached, 0.99),
	}
	if total := out.Hits + out.Misses; total > 0 {
		out.HitRate = float64(out.Hits) / float64(total)
	}
	if out.CachedP50MS > 0 {
		out.SpeedupP50 = out.ExecutedP50MS / out.CachedP50MS
	}
	fmt.Printf("result cache: %d shapes, %d queries (zipf %g): hit rate %.1f%% (%d/%d); executed p50=%.3fms p99=%.3fms cached p50=%.3fms p99=%.3fms speedup(p50)=%.1f×\n",
		out.Shapes, out.Queries, zipfS, 100*out.HitRate, out.Hits, out.Hits+out.Misses,
		out.ExecutedP50MS, out.ExecutedP99MS, out.CachedP50MS, out.CachedP99MS, out.SpeedupP50)
	return out
}

// runLoad executes the concurrent load benchmark.
func runLoad(cfg loadConfig) error {
	fmt.Printf("load mode: %d clients, %v, %d-point pool, %d regions, bounds %v, agg %v, batch %d, resident %v, skew %g\n",
		cfg.concurrency, cfg.duration, cfg.numPoints, cfg.censusCount, cfg.bounds, cfg.agg, cfg.batch, cfg.resident, cfg.skew)

	pts, weights := data.TaxiPoints(cfg.seed, cfg.numPoints)
	pool := distbound.PointSet{Pts: pts, Weights: weights}
	regions := data.Regions(data.Census(cfg.seed+1, cfg.censusCount))
	if cfg.skew > 0 {
		regions = zipfRegions(cfg.seed+1, cfg.censusCount, cfg.skew)
		var total, biggest float64
		for _, rg := range regions {
			a := rg.Bounds().Area()
			total += a
			if a > biggest {
				biggest = a
			}
		}
		fmt.Printf("zipf regions: exponent %g, largest region holds %.1f%% of the total covered area — p99 shows whether cost-weighted partitioning tames it\n",
			cfg.skew, 100*biggest/total)
	}
	e := distbound.NewEngine(regions)
	// Execution benchmarks measure execution: outside -cache mode the result
	// cache is disabled so repeated identical queries keep exercising the
	// fold path instead of serving a memoized copy.
	if !cfg.cache {
		e.SetResultCacheCapacity(0)
	}

	var ds *distbound.Dataset
	var comparisons []pathComparison
	if cfg.resident {
		if cfg.queryPoints > 0 {
			fmt.Println("note: -resident aggregates the whole pool per query; -querypoints only affects the ad-hoc verification slice")
		}
		t0 := time.Now()
		var err error
		ds, err = e.RegisterPoints("pool", pts, weights)
		if err != nil {
			return fmt.Errorf("registering dataset: %w", err)
		}
		fmt.Printf("registered resident dataset: %d points (%d outside domain), %.1f MB, built in %v\n",
			ds.Len(), ds.Dropped(), float64(ds.MemoryBytes())/1e6, time.Since(t0).Round(time.Millisecond))
	}

	verifyStart := time.Now()
	if err := verifyPaths(e, cfg.querySlice(pool, rand.New(rand.NewSource(cfg.seed))), cfg); err != nil {
		return fmt.Errorf("verification failed: %w", err)
	}
	if cfg.resident {
		if err := verifyResident(e, ds, cfg); err != nil {
			return fmt.Errorf("resident verification failed: %w", err)
		}
	}
	fmt.Printf("verification: counts and values agree across sequential, parallel and batched paths (%v)\n",
		time.Since(verifyStart).Round(time.Millisecond))

	// Fix the configured worker count before any timed measurement, so the
	// head-to-head and the load phase land in one consistent configuration.
	e.SetWorkers(cfg.workers)
	// Calibration runs before the timed phases so they execute under the
	// fitted model (which, by the uniform-scaling design, plans the same
	// strategies the defaults would).
	var calibration *calibrationJSON
	if cfg.calibrate {
		var err error
		if calibration, err = runCalibration(e, ds, cfg); err != nil {
			return err
		}
	}
	var coverPlans []coverPlanComparison
	if cfg.resident {
		comparisons = compareResident(e, ds, pool, cfg)
		coverPlans = compareCoverPlan(regions, pool, cfg)
	}
	// The cache bench leaves the result cache enabled, so the load phase in
	// -cache mode measures the repeated workload the cache serves.
	var cacheBench *cacheBenchJSON
	if cfg.cache {
		cacheBench = benchResultCache(e, ds, cfg)
	}
	var multiAggs []multiAggComparison
	if cfg.multiagg {
		multiAggs = compareMultiAgg(e, ds, pool, cfg)
	}

	type clientStats struct {
		latencies  []time.Duration
		strategies map[distbound.Strategy]int
	}
	stats := make([]clientStats, cfg.concurrency)
	clientErrs := make([]error, cfg.concurrency)
	var wg sync.WaitGroup
	start := make(chan struct{})
	deadline := time.Now().Add(cfg.duration)
	// The load context carries the run deadline into the engine: a query
	// still in flight when the bench ends is cancelled through the same
	// chain a real serving deadline would use, instead of running to
	// completion against a detached background context.
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	for c := 0; c < cfg.concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + int64(c)*7919))
			st := clientStats{strategies: map[distbound.Strategy]int{}}
			// Keep whatever the client completed even if it aborts on an
			// error; the run then still reports honest partial numbers
			// alongside the failure.
			defer func() { stats[c] = st }()
			<-start
			for i := 0; time.Now().Before(deadline); i++ {
				if cfg.batch > 0 {
					reqs := make([]distbound.Request, cfg.batch)
					for q := range reqs {
						reqs[q] = distbound.Request{
							Aggs:        []distbound.Agg{cfg.agg},
							Bound:       cfg.bounds[(c+i+q)%len(cfg.bounds)],
							Repetitions: cfg.repetitions,
						}
						if cfg.resident {
							reqs[q].Dataset = ds
						} else {
							reqs[q].Points = cfg.querySlice(pool, rng)
						}
					}
					t0 := time.Now()
					resps, err := e.DoBatch(ctx, reqs, cfg.workers)
					el := time.Since(t0)
					if err != nil {
						// The deadline expiring mid-batch is the clean end of
						// the run, not a client failure.
						if ctx.Err() == nil {
							clientErrs[c] = err
						}
						return
					}
					for q := range resps {
						r := &resps[q]
						if r.Err != nil {
							if ctx.Err() == nil {
								clientErrs[c] = r.Err
							}
							return
						}
						// Per-query latency inside a batch is the batch
						// latency: callers wait for the whole batch.
						st.latencies = append(st.latencies, el)
						st.strategies[r.Strategy]++
						r.Release()
					}
				} else {
					bound := cfg.bounds[(c+i)%len(cfg.bounds)]
					req := distbound.Request{
						Aggs:        []distbound.Agg{cfg.agg},
						Bound:       bound,
						Repetitions: cfg.repetitions,
					}
					if cfg.resident {
						req.Dataset = ds
					} else {
						req.Points = cfg.querySlice(pool, rng)
					}
					t0 := time.Now()
					resp, err := e.Do(ctx, req)
					if err != nil {
						if ctx.Err() == nil {
							clientErrs[c] = err
						}
						return
					}
					st.latencies = append(st.latencies, time.Since(t0))
					st.strategies[resp.Strategy]++
					resp.Release()
				}
			}
		}(c)
	}
	close(start)
	t0 := time.Now()
	wg.Wait()
	elapsed := time.Since(t0)

	var all []time.Duration
	strategies := map[distbound.Strategy]int{}
	for _, st := range stats {
		all = append(all, st.latencies...)
		for s, n := range st.strategies {
			strategies[s] += n
		}
	}
	if len(all) == 0 {
		for c, err := range clientErrs {
			if err != nil {
				return fmt.Errorf("no queries completed; client %d: %w", c, err)
			}
		}
		return fmt.Errorf("no queries completed")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(all)-1))
		return all[i]
	}

	fmt.Printf("\ncompleted %d queries in %v across %d clients\n", len(all), elapsed.Round(time.Millisecond), cfg.concurrency)
	fmt.Printf("throughput: %.1f queries/s\n", float64(len(all))/elapsed.Seconds())
	fmt.Printf("latency: p50=%v p90=%v p99=%v max=%v\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), all[len(all)-1].Round(time.Microsecond))
	fmt.Printf("strategies:")
	for _, s := range []distbound.Strategy{distbound.StrategyExact, distbound.StrategyACT, distbound.StrategyBRJ, distbound.StrategyPointIdx} {
		if n := strategies[s]; n > 0 {
			fmt.Printf(" %v=%d", s, n)
		}
	}
	fmt.Println()
	actStats, brjStats, coverStats := e.CacheStats()
	fmt.Printf("index caches: act{hits=%d builds=%d coalesced=%d evictions=%d} brj{hits=%d builds=%d coalesced=%d evictions=%d} cover{hits=%d builds=%d coalesced=%d evictions=%d}\n",
		actStats.Hits, actStats.Builds, actStats.Coalesced, actStats.Evictions,
		brjStats.Hits, brjStats.Builds, brjStats.Coalesced, brjStats.Evictions,
		coverStats.Hits, coverStats.Builds, coverStats.Coalesced, coverStats.Evictions)
	for c, err := range clientErrs {
		if err != nil {
			return fmt.Errorf("client %d aborted: %w (numbers above are partial)", c, err)
		}
	}
	// The persistence phase runs after the timed load so its mutation tail
	// and checkpoint compaction cannot perturb the throughput numbers.
	var persistence *persistenceJSON
	if cfg.persist {
		var err error
		if persistence, err = runPersistPhase(e, ds, pool, regions, cfg); err != nil {
			return fmt.Errorf("persistence phase: %w", err)
		}
	}
	if cfg.cache {
		st := e.ResultCacheStats()
		fmt.Printf("result cache (load phase included): hits=%d misses=%d evictions=%d\n", st.Hits, st.Misses, st.Evictions)
	}
	if cfg.jsonPath != "" {
		if err := writeBenchJSON(cfg, len(all), elapsed, pct, all[len(all)-1], strategies, comparisons, multiAggs, coverPlans, calibration, persistence, cacheBench); err != nil {
			return fmt.Errorf("writing %s: %w", cfg.jsonPath, err)
		}
		fmt.Printf("wrote %s\n", cfg.jsonPath)
	}
	return nil
}
