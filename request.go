package distbound

import (
	"context"
	"errors"
	"fmt"
	"time"

	"distbound/internal/join"
	"distbound/internal/planner"
	"distbound/internal/pool"
)

// Plan is the planner's decision with its considered alternatives.
type Plan = planner.Plan

// Request describes one aggregation query for Engine.Do: one target, one
// distance bound, and a *set* of aggregates answered together — one plan,
// one index build, one snapshot and one fold pass serve every aggregate in
// the set, instead of one independent cover walk per aggregate.
type Request struct {
	// Points is the ad-hoc point relation of the query. Exactly one target —
	// Points or Dataset — may be set.
	Points PointSet
	// Dataset, when non-nil, targets a registered resident dataset instead
	// of an ad-hoc point set. Registration is the declaration of repeated
	// use, so no planning happens: a positive Bound runs the learned-index
	// strategy without streaming any points, anything else the exact join;
	// force Strategy to stream a dataset through ACT or BRJ instead. The
	// handle must belong to this engine.
	Dataset *Dataset
	// Aggs is the aggregate set. At least one aggregate is required;
	// Response.Results aligns with it positionally. Every aggregate is
	// computed in one pass: on a given strategy, results are bit-identical
	// to issuing one request per aggregate (COUNT/MIN/MAX exactly; SUM/AVG
	// fold in the identical order, so even float results match bit-for-bit),
	// only cheaper. Note that splitting a set can change what the planner
	// picks — a lone SUM may plan BRJ where a MIN-carrying set cannot — and
	// different (equally bound-respecting) strategies associate float sums
	// differently; pin Strategy to compare across request shapes.
	Aggs []Agg
	// Bound is the distance bound ε; ≤ 0 (or NaN) requests exact answers.
	Bound float64
	// Repetitions is how many times the caller expects to run this query in
	// total (index build cost amortizes over it); only the planner reads it,
	// so it means nothing for a Dataset target. Values < 1 normalize to 1
	// here — the single clamping point for every entry path.
	Repetitions int
	// Strategy, when non-nil, bypasses the planner and forces the physical
	// strategy. The request is rejected up front if the strategy cannot
	// answer it (BRJ with MIN/MAX in the set, pointidx without a Dataset
	// target, any non-exact strategy without a positive bound).
	Strategy *Strategy
	// Workers overrides the engine's intra-query fan-out for this request;
	// ≤ 0 selects the engine's SetWorkers configuration (and, inside
	// DoBatch, a single-threaded join — the batch parallelizes across
	// requests instead).
	Workers int
	// Explain asks for the rendered plan comparison in Response.Explain.
	Explain bool
}

// Response carries one request's outcome.
type Response struct {
	// Results holds one Result per requested aggregate, positionally aligned
	// with Request.Aggs.
	Results []Result
	// Strategy is the physical strategy that ran: the plan's choice, or the
	// request's override.
	Strategy Strategy
	// Plan is the planner's full cost comparison for an ad-hoc request, and
	// the bare rule outcome (no Costs) for a Dataset target. Under a Strategy
	// override it still records what would have been chosen.
	Plan Plan
	// Explain is the rendered plan comparison, filled iff Request.Explain.
	Explain string
	// Build is the time this request spent acquiring the strategy's build
	// artifact — a real build on a cold cache, a wait on a build in flight,
	// ~0 on a warm hit.
	Build time.Duration
	// Wall is the request's total execution time.
	Wall time.Duration
	// RangesProbed and DeltaProbed count the work this request performed on
	// the resident path, not the size of what it answered from: the cover
	// ranges probed by a base fill (every region's every range on the first
	// request against a base or after a delete, 0 once the joiner holds the
	// fold), and the live delta rows newly searched into the cover table's
	// boundary segments (the rows appended since the previous request at
	// this bound, 0 when nothing was). Both are 0 on a result-cache hit and for
	// strategies other than pointidx — the probe economy they meter is the
	// resident path's.
	RangesProbed int
	// DeltaProbed — see RangesProbed.
	DeltaProbed int
	// Err is the per-request outcome in DoBatch (a failed request never
	// aborts its siblings). Do reports errors through its error return
	// instead and leaves Err nil.
	Err error

	// scratch is the engine-pooled backing storage behind Results and
	// Plan.Costs; Release hands it back. Exactly one of scratch and cached
	// is set on a successful Response.
	scratch *respScratch
	// cached, when non-nil, marks a result-cache hit: Results and Plan are
	// the entry's shared read-only copies, and this Response holds one of
	// its references until Release.
	cached *cachedResponse
}

// Release returns the Response's backing storage — the result columns and
// plan tables — to its engine for reuse by later requests, making a warm
// resident serving loop allocation-free. After Release the Response's
// Results and Plan must not be touched: a later request may be writing into
// them. Releasing is optional (an unreleased Response is ordinary garbage),
// a released zero Response is a no-op, and each Response must be released
// at most once, from one copy of it.
//
// For a result-cache hit, Release is a reference-count decrement on the
// shared cached entry — never a pool return — so releasing a hit can never
// hand another request's live backing storage back to the pool.
//
//distbound:noalloc
func (r *Response) Release() {
	if c := r.cached; c != nil {
		r.cached = nil
		r.Results = nil
		r.Plan = Plan{}
		c.release()
		return
	}
	sc := r.scratch
	if sc == nil {
		return
	}
	r.scratch = nil
	r.Results = nil
	r.Plan = Plan{}
	sc.e.scratch.Put(sc)
}

// respScratch is the reusable backing storage of one in-flight request:
// the planner's maps and the per-aggregate result columns, sized once for
// the engine's region count and recycled through Engine.scratch.
type respScratch struct {
	e      *Engine
	cached map[Strategy]bool
	plan   planner.Plan // retains the Costs map across uses
	out    []Result
	counts [][]int64   // one column per aggregate slot
	floats [][]float64 // Sums/Extremes column per aggregate slot
}

// prepResults shapes the scratch's result slots for an aggregate set: every
// column is engine-region sized and fully overwritten by the fold, so no
// clearing is needed.
func (sc *respScratch) prepResults(aggs []Agg, numReg int) []Result {
	for len(sc.counts) < len(aggs) {
		sc.counts = append(sc.counts, make([]int64, numReg))
		sc.floats = append(sc.floats, nil)
	}
	if cap(sc.out) < len(aggs) {
		sc.out = make([]Result, len(aggs))
	}
	sc.out = sc.out[:len(aggs)]
	for k, agg := range aggs {
		r := Result{Agg: agg, Counts: sc.counts[k]}
		if agg != Count {
			if sc.floats[k] == nil {
				sc.floats[k] = make([]float64, numReg)
			}
			switch agg {
			case Sum, Avg:
				r.Sums = sc.floats[k]
			default:
				r.Extremes = sc.floats[k]
			}
		}
		sc.out[k] = r
	}
	return sc.out
}

// normalizeRequest validates req and applies the shared normalization every
// entry path goes through — the Repetitions < 1 → 1 clamp and the
// Workers ≤ 0 default both live here and nowhere else. batch selects the
// batched default for Workers: a single-threaded join, because DoBatch
// parallelizes across requests and combining both fan-outs would
// oversubscribe the pool; Do's default is the engine's SetWorkers
// configuration.
func (e *Engine) normalizeRequest(req Request, batch bool) (Request, error) {
	if len(req.Aggs) == 0 {
		return req, fmt.Errorf("distbound: request needs at least one aggregate")
	}
	if req.Dataset != nil && (req.Points.Pts != nil || req.Points.Weights != nil) {
		return req, fmt.Errorf("distbound: request sets both Points and Dataset; name exactly one target")
	}
	if req.Dataset != nil {
		if err := e.checkDataset(req.Dataset); err != nil {
			return req, err
		}
	}
	if req.Repetitions < 1 {
		req.Repetitions = 1
	}
	if req.Workers <= 0 {
		if batch {
			req.Workers = 1
		} else {
			req.Workers = e.Workers()
		}
	}
	if req.Strategy != nil {
		if err := checkOverride(req); err != nil {
			return req, err
		}
	}
	return req, nil
}

// checkOverride rejects a forced strategy that cannot answer the request, so
// the failure names the real conflict instead of surfacing from deep inside
// a joiner.
func checkOverride(req Request) error {
	switch s := *req.Strategy; s {
	case StrategyExact:
		return nil
	case StrategyACT, StrategyBRJ, StrategyPointIdx:
		if !(req.Bound > 0) {
			return fmt.Errorf("distbound: strategy %v requires a positive bound", s)
		}
		if s == StrategyBRJ && join.ExtremeIn(req.Aggs) {
			return fmt.Errorf("distbound: strategy brj cannot answer MIN/MAX aggregates")
		}
		if s == StrategyPointIdx && req.Dataset == nil {
			return fmt.Errorf("distbound: strategy pointidx requires a Dataset target")
		}
		return nil
	default:
		return fmt.Errorf("distbound: unknown strategy %v", s)
	}
}

// planRequest fixes one normalized request's plan. A registered dataset is
// answered by rule — registering it is the declaration of repeated use, so a
// positive bound runs the resident point index and anything else the exact
// join — and only an ad-hoc point set has a choice for the cost model to
// make, at an explicit effective repetition count (DoBatch adds same-bound
// sharing credit on top of the request's own). A non-nil scratch lends the
// planner its maps, making a warm plan allocation-free; the returned Plan
// then shares them until the scratch's Response is released.
func (e *Engine) planRequest(req Request, reps int, sc *respScratch) Plan {
	if req.Dataset != nil {
		p := Plan{Strategy: StrategyExact}
		if req.Bound > 0 {
			p.Strategy = StrategyPointIdx
		}
		if req.Explain {
			// The resident cover set knows the real cover-plan shape; surface
			// it so Explain reports what a pointidx run will actually probe.
			if ce, ok := e.covers.PeekReady(req.Bound); ok {
				p.Cover = planner.CoverStats{
					Ranges:     ce.set.NumRanges(),
					Boundaries: ce.set.NumBoundaryProbes(),
				}
			}
		}
		return p
	}
	var cached map[Strategy]bool
	planBuf := &planner.Plan{}
	if sc != nil {
		cached, planBuf = sc.cached, &sc.plan
	}
	e.costModel().ChooseInto(planner.Query{
		NumPoints:   len(req.Points.Pts),
		Regions:     e.regions,
		Bound:       req.Bound,
		Repetitions: reps,
		Aggs:        req.Aggs,
		CachedBuild: e.cachedBuildsInto(req.Bound, cached),
		Stats:       &e.stats,
	}, planBuf)
	return *planBuf
}

// inflight is one normalized request between begin and finish.
type inflight struct {
	req       Request
	key       resultKey // set by begin; meaningful iff cacheable
	cacheable bool
}

// begin is the first of the two steps every request takes: probe the result
// cache and, on a miss, borrow a pooled scratch, fix the plan at the given
// effective repetition count and render it if asked. It reports a hit —
// resp is then the cached answer (resp.cached set), its Wall counted from
// start, and there is nothing to finish.
//
// The cache key reads the dataset's mutation epoch here, before execution: a
// hit then serves data at least as new as any state this request could have
// observed by executing, which keeps cached serving linearizable under
// concurrent mutation. A disabled cache is a full bypass — no probe, no
// counters, and no deep copy on the way out — so the executed warm path
// stays allocation-free.
func (e *Engine) begin(f *inflight, reps int, start time.Time, resp *Response) (hit bool) {
	if k, ok := resultCacheKey(f.req); ok && e.results.Enabled() {
		if c, ok := e.results.Get(k); ok {
			*resp = c.respond(start)
			return true
		}
		f.key, f.cacheable = k, true
	}
	resp.scratch = e.getScratch()
	plan := e.planRequest(f.req, reps, resp.scratch)
	resp.Strategy, resp.Plan = plan.Strategy, plan
	if f.req.Strategy != nil {
		resp.Strategy = *f.req.Strategy
	}
	if f.req.Explain {
		resp.Explain = plan.Explain()
	}
	return false
}

// finish is the second step: execute the begun request on its fixed
// strategy, stamp Wall from start, and publish a cacheable answer. A failed
// response still references the scratch's plan tables, so the scratch is not
// recycled — Release on an errored response is a no-op.
func (e *Engine) finish(ctx context.Context, f *inflight, start time.Time, resp *Response) error {
	err := e.executeMulti(ctx, f.req, resp.Strategy, f.req.Workers, resp)
	resp.Wall = time.Since(start)
	if err != nil {
		resp.scratch = nil
		return canceledAs(ctx, err)
	}
	if f.cacheable {
		e.results.Put(f.key, newCachedResponse(resp))
	}
	return nil
}

// Do answers one request: it plans once for the whole aggregate set, builds
// (or reuses) one artifact, and computes every aggregate in a single fold
// pass over one snapshot. Canceling ctx unwinds the worker fan-out promptly
// — and a build every waiter abandoned stops too — returning ctx.Err();
// caches and in-flight builds other callers share stay consistent. Safe for
// concurrent use.
func (e *Engine) Do(ctx context.Context, req Request) (Response, error) {
	start := time.Now()
	var f inflight
	var err error
	if f.req, err = e.normalizeRequest(req, false); err != nil {
		return Response{}, err
	}
	var resp Response
	if !e.begin(&f, f.req.Repetitions, start, &resp) {
		err = e.finish(ctx, &f, start, &resp)
	}
	return resp, err
}

// canceledAs maps a cancellation-shaped execution error back to the
// caller's ctx.Err() — the contract is that canceling a request returns
// ctx.Err(), not the joiner- or build-wrapped form it surfaced as. An
// unrelated error (a validation failure, a build bug) is preserved even if
// the context happens to expire in the same instant: masking it would send
// the caller retrying a request that can never succeed.
func canceledAs(ctx context.Context, err error) error {
	if ce := ctx.Err(); ce != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return ce
	}
	return err
}

// DoBatch answers many requests by sharding them across a pool of workers
// (≤ 0 selects GOMAXPROCS). Every request's plan is fixed up front against
// the cache state at batch entry, so a batch's results — including the
// chosen strategies — are deterministic for a given engine state regardless
// of worker count; requests that share a distance bound amortize one index
// build across the batch. Responses align positionally with requests, and a
// failed request reports through its Response.Err without aborting its
// siblings. Canceling ctx stops dispatching, lets started requests unwind
// promptly, marks every unfinished request's Err with ctx.Err(), and
// returns ctx.Err(); a nil error means every request ran (check per-request
// Errs for individual failures).
//
// Unless a request sets Workers explicitly, its join runs single-threaded:
// the batch parallelizes across requests, and combining both fan-outs would
// oversubscribe the pool.
func (e *Engine) DoBatch(ctx context.Context, reqs []Request, workers int) ([]Response, error) {
	workers = pool.Workers(workers, len(reqs))
	resps := make([]Response, len(reqs))
	flights := make([]inflight, len(reqs))

	// Multiplicity inside the batch: k ad-hoc requests that can share a
	// strategy's build artifact mean a freshly built index is reused at least
	// k times, which the planner folds into its repetition amortization. Sets
	// containing MIN/MAX are keyed separately — they can never run BRJ, so
	// counting them toward a COUNT request's amortization could credit a
	// mask build the extremes will never touch. Dataset requests are planned
	// by rule and neither earn nor lend credit, and nor does a rejected
	// request: it builds nothing for its siblings to reuse.
	type shareKey struct {
		bound   float64
		extreme bool
	}
	keyOf := func(r Request) shareKey {
		return shareKey{bound: r.Bound, extreme: join.ExtremeIn(r.Aggs)}
	}
	sharing := map[shareKey]int{}
	for i, r := range reqs {
		if flights[i].req, resps[i].Err = e.normalizeRequest(r, true); resps[i].Err == nil && r.Dataset == nil {
			sharing[keyOf(r)]++
		}
	}

	// Begin everything before finishing anything: plans then reflect the
	// batch-entry cache state instead of whatever builds happen to finish
	// mid-batch, which would make strategy choice depend on worker
	// interleaving. Each valid request borrows its pooled scratch here and
	// keeps it through execution, so batched warm resident requests reuse
	// backing storage exactly as Do's do.
	for i := range flights {
		if f := &flights[i]; resps[i].Err == nil {
			e.begin(f, f.req.Repetitions+sharing[keyOf(f.req)]-1, time.Now(), &resps[i])
		}
	}

	err := pool.RunCtx(ctx, len(reqs), workers, func(_, i int) error {
		if resps[i].Err == nil && resps[i].cached == nil { // neither rejected nor a hit
			// Per-request failures land in Err rather than aborting the
			// pool, so one bad request never drops its siblings.
			resps[i].Err = e.finish(ctx, &flights[i], time.Now(), &resps[i])
		}
		return nil
	})
	if err != nil {
		for i := range resps {
			if resps[i].Results == nil && resps[i].Err == nil {
				resps[i].Err = err
				resps[i].scratch = nil // failed responses keep their plan tables
			}
		}
	}
	return resps, err
}

// executeMulti runs one normalized request's aggregate set on a fixed
// strategy — one artifact acquisition, one multi-aggregate fold — writing
// Results, Build and the probe counters into resp. The pointidx path folds
// into resp's pooled scratch columns (allocating fresh ones only when resp
// carries no scratch), which is what keeps the warm resident path
// allocation-free.
func (e *Engine) executeMulti(ctx context.Context, req Request, strategy Strategy, workers int, resp *Response) error {
	ps := req.Points
	if ds := req.Dataset; ds != nil {
		if strategy == StrategyPointIdx {
			tb := time.Now()
			ce, err := e.coverEntryCtx(ctx, req.Bound, workers)
			resp.Build = time.Since(tb)
			if err != nil {
				return err
			}
			j := ce.joiner(e, ds)
			var results []Result
			if resp.scratch != nil {
				results = resp.scratch.prepResults(req.Aggs, len(e.regions))
			} else {
				results = join.NewResults(req.Aggs, len(e.regions))
			}
			stats, err := j.AggregateMultiInto(ctx, req.Aggs, workers, results)
			if err != nil {
				return err
			}
			resp.Results = results
			resp.RangesProbed = stats.RangesProbed
			resp.DeltaProbed = stats.DeltaProbed
			return nil
		}
		// Streaming strategies consume the dataset's materialized live points
		// — the same survivors the point-index strategy serves from
		// base+delta — so all plans agree on a mutated dataset, not just a
		// freshly registered one.
		pts, ws := ds.src.Snapshot().Materialize()
		ps = PointSet{Pts: pts, Weights: ws}
	}
	switch strategy {
	case StrategyExact:
		// The R*-tree build is MBR bulk-loading — milliseconds, charged no
		// cost by the planner and not worth a context gate — but the one
		// caller who does pay it should see it in Build.
		tb := time.Now()
		j := e.exactJoiner()
		resp.Build = time.Since(tb)
		results, err := j.AggregateMulti(ctx, ps, req.Aggs, workers)
		resp.Results = results
		return err
	case StrategyACT:
		tb := time.Now()
		aj, err := e.actJoinerCtx(ctx, req.Bound, workers)
		resp.Build = time.Since(tb)
		if err != nil {
			return err
		}
		results, err := aj.AggregateMulti(ctx, ps, req.Aggs, workers)
		resp.Results = results
		return err
	case StrategyBRJ:
		tb := time.Now()
		bj, err := e.brjJoinerCtx(ctx, req.Bound, workers)
		resp.Build = time.Since(tb)
		if err != nil {
			return err
		}
		results, err := bj.AggregateMulti(ctx, ps, req.Aggs, workers)
		resp.Results = results
		return err
	default:
		return fmt.Errorf("distbound: unknown strategy %v", strategy)
	}
}
