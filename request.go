package distbound

import (
	"context"
	"errors"
	"fmt"
	"time"

	"distbound/internal/join"
	"distbound/internal/planner"
)

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
	// use, so no planning happens: a positive Bound runs the pointidx
	// strategy without streaming any points, anything else the exact join;
	// force Strategy to stream a dataset through ACT or BRJ instead. The
	// handle must belong to this engine.
	Dataset *Dataset
	// Aggs is the aggregate set. At least one aggregate is required;
	// Response.Results aligns with it positionally. Every aggregate is
	// computed in one pass: on a given strategy, results are bit-identical
	// to issuing one request per aggregate (COUNT/MIN/MAX exactly; SUM/AVG
	// fold in the identical order, so even float results match bit-for-bit),
	// only cheaper. Note that splitting a set can change the rule's pick — a
	// lone SUM at ε ≥ 32 plans BRJ where a MIN-carrying set cannot — and
	// different (equally bound-respecting) strategies associate float sums
	// differently; pin Strategy to compare across request shapes.
	Aggs []Agg
	// Bound is the distance bound ε; ≤ 0 (or NaN) requests exact answers.
	Bound float64
	// Repetitions is not read: the ad-hoc rule picks by bound, and a cold
	// artifact is built on first use whatever the caller expects to repeat.
	// It stays until the repository benchmark's harness stops setting it
	// (ROADMAP item 1).
	Repetitions int
	// Strategy, when non-nil, bypasses the planner and forces the physical
	// strategy. The request is rejected up front if the strategy cannot
	// answer it (BRJ with MIN/MAX in the set, pointidx without a Dataset
	// target, any non-exact strategy without a positive bound).
	Strategy *Strategy
	// Workers caps the request's intra-query fan-out, cold builds included;
	// ≤ 0 selects GOMAXPROCS. It shapes speed only: every strategy answers
	// bit-identically at every worker count. A server already running many
	// queries concurrently typically wants 1 to avoid oversubscription.
	Workers int
}

// Response carries one request's outcome.
type Response struct {
	// Results holds one Result per requested aggregate, positionally aligned
	// with Request.Aggs.
	Results []Result
	// Strategy is the physical strategy that ran: the request's override if
	// it set one, and otherwise the rule's pick — the ad-hoc rule's for a
	// point set, the resident rule's for a Dataset target.
	Strategy Strategy
	// Build is the time this request spent acquiring the strategy's build
	// artifact — a real build on a cold cache, a wait on a build in flight,
	// ~0 on a warm hit.
	Build time.Duration
	// Wall is the request's total execution time.
	Wall time.Duration
	// ServedBound is the distance bound the answer meets, ≤ Bound: on
	// pointidx and act the cell diagonal of the cover it was read from — a
	// resident finer cover serves every coarser bound — on BRJ the bound
	// itself (its pixel diagonal is ε), and 0 on the exact join.
	ServedBound float64
	// RangesProbed and DeltaProbed count the work this request performed on
	// the resident path, not the size of what it answered from: the cover
	// ranges probed by a base fill (every region's every range on the first
	// request against a base or after a delete, 0 once the joiner holds the
	// fold), and the live delta rows newly searched into the cover table's
	// boundary segments (the rows appended since the previous request the
	// serving level answered, 0 when nothing was). Both are 0 for strategies
	// other than pointidx — the probe economy they meter is the resident path's.
	RangesProbed int
	// DeltaProbed — see RangesProbed.
	DeltaProbed int

	// scratch is the engine-pooled backing storage behind Results; Release
	// hands it back. It is set on every successful Response.
	scratch *respScratch
}

// Release returns the Response's backing storage — the result columns — to
// its engine for reuse by later requests, making a warm resident serving loop
// allocation-free. After Release the Response's Results must not be
// touched: a later request may be writing into them. Releasing is optional
// (an unreleased Response is ordinary garbage), a released zero Response is
// a no-op, and each Response must be released at most once, from one copy
// of it.
//
//distbound:noalloc
func (r *Response) Release() {
	sc := r.scratch
	if sc == nil {
		return
	}
	r.scratch = nil
	r.Results = nil
	sc.e.scratch.Put(sc)
}

// respScratch is the reusable backing storage of one in-flight request: the
// per-aggregate result columns, sized once for the engine's region count and
// recycled through Engine.scratch.
type respScratch struct {
	e      *Engine
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

// normalizeRequest validates req and applies the shared normalization: the
// Workers ≤ 0 → 0 (GOMAXPROCS) default lives here and nowhere else.
func (e *Engine) normalizeRequest(req Request) (Request, error) {
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
	if req.Workers < 0 {
		req.Workers = 0
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

// strategyFor picks one normalized, unforced request's strategy by rule. A
// registered dataset — registering it is the declaration of repeated use —
// runs the resident point index at a positive bound and the exact join
// otherwise; an ad-hoc point set takes planner.ChooseInto's bands on the
// bound. Neither reads what is cached: a cold artifact is built on first use.
func strategyFor(req Request) Strategy {
	if req.Dataset != nil {
		if req.Bound > 0 {
			return StrategyPointIdx
		}
		return StrategyExact
	}
	var p planner.Plan
	planner.CostModel{}.ChooseInto(planner.Query{Bound: req.Bound, Aggs: req.Aggs}, &p)
	return p.Strategy
}

// Do answers one request: it plans once for the whole aggregate set, builds
// (or reuses) one artifact, and computes every aggregate in a single fold
// pass over one snapshot. Canceling ctx unwinds the worker fan-out promptly
// — and a build every waiter abandoned stops too — returning ctx.Err();
// caches and in-flight builds other callers share stay consistent. Safe for
// concurrent use. Every call executes: the engine caches artifacts, never
// answers.
func (e *Engine) Do(ctx context.Context, req Request) (Response, error) {
	start := time.Now()
	req, err := e.normalizeRequest(req)
	if err != nil {
		return Response{}, err
	}
	resp := Response{scratch: e.getScratch()}
	if req.Strategy != nil {
		resp.Strategy = *req.Strategy
	} else {
		resp.Strategy = strategyFor(req)
	}
	err = e.executeMulti(ctx, req, &resp)
	resp.Wall = time.Since(start)
	if err != nil {
		// A failed response may still reference the scratch's result
		// columns, so the scratch is not recycled — Release on it is a no-op.
		resp.scratch = nil
		return resp, canceledAs(ctx, err)
	}
	return resp, nil
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

// executeMulti runs one normalized request's aggregate set on resp.Strategy
// — one artifact acquisition, one multi-aggregate fold — writing Results,
// Build and the probe counters into resp. The pointidx path folds into
// resp's pooled scratch columns, which is what keeps the warm resident path
// allocation-free.
func (e *Engine) executeMulti(ctx context.Context, req Request, resp *Response) error {
	strategy, workers := resp.Strategy, req.Workers
	ps := req.Points
	if ds := req.Dataset; ds != nil {
		if strategy == StrategyPointIdx {
			tb := time.Now()
			c, err := e.coverCtx(ctx, req.Bound, workers)
			resp.Build = time.Since(tb)
			if err != nil {
				return err
			}
			resp.ServedBound = c.bound
			j := ds.joiner(c)
			results := resp.scratch.prepResults(req.Aggs, len(e.regions))
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
		// The exact join filters through the engine's exact cover and refines
		// only the points in boundary cells.
		tb := time.Now()
		ec, err := e.exactCoverCtx(ctx, workers)
		resp.Build = time.Since(tb)
		if err != nil {
			return err
		}
		results, err := ec.AggregateMulti(ctx, ps, req.Aggs, workers)
		resp.Results = results
		return err
	case StrategyACT:
		// The approximate cell-lookup join answers from the cover set the
		// rule serves the bound from, the artifact resident reads share.
		tb := time.Now()
		c, err := e.coverCtx(ctx, req.Bound, workers)
		resp.Build = time.Since(tb)
		if err != nil {
			return err
		}
		resp.ServedBound = c.bound
		results, err := c.set.AggregateMulti(ctx, ps, req.Aggs, workers)
		resp.Results = results
		return err
	case StrategyBRJ:
		tb := time.Now()
		bj, err := e.brjJoinerCtx(ctx, req.Bound, workers)
		resp.Build = time.Since(tb)
		if err != nil {
			return err
		}
		resp.ServedBound = req.Bound
		results, err := bj.AggregateMulti(ctx, ps, req.Aggs, workers)
		resp.Results = results
		return err
	default:
		return fmt.Errorf("distbound: unknown strategy %v", strategy)
	}
}
