package distbound

import "context"

// runDataset executes one dataset query on a fixed strategy — the hook the
// differential and mutable-dataset tests use to pin every strategy against
// every other on the same mutated dataset. It lives in a _test file because
// production callers all route through Do/executeMulti; keeping it here
// means there is exactly one execution path to diverge from (none).
func (e *Engine) runDataset(ds *Dataset, agg Agg, bound float64, strategy Strategy, workers int) (Result, error) {
	resp := Response{Strategy: strategy, scratch: e.getScratch()}
	err := e.executeMulti(context.Background(),
		Request{Dataset: ds, Aggs: []Agg{agg}, Bound: bound, Workers: workers}, &resp)
	if err != nil {
		return Result{}, err
	}
	return resp.Results[0], nil
}

// dropJoiner detaches the dataset's joiner at bound — span resolution, base
// partials and delta accumulators — so the next pointidx request attaches a
// fresh one to the still-resident cover set and re-executes from nothing: the
// cold side of the benchmarks. A bound with no built artifact is a no-op.
func (e *Engine) dropJoiner(ds *Dataset, bound float64) {
	if ce, ok := e.covers.PeekReady(bound); ok {
		ce.joiners.Delete(ds.src)
	}
}

// planOnly returns the plan Do would fix for req at reps repetitions,
// without executing anything — the hook for plan-only assertions. The plan
// keeps its scratch's maps, so the scratch never returns to the pool.
func (e *Engine) planOnly(req Request, reps int) Plan {
	req.Repetitions = reps
	return e.planRequest(req, e.getScratch())
}

// adHoc is a one-aggregate request over n ad-hoc points; the planner reads
// only their count.
func adHoc(n int, agg Agg, bound float64) Request {
	return Request{Points: PointSet{Pts: make([]Point, n)}, Aggs: []Agg{agg}, Bound: bound}
}
