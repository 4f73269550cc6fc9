package distbound

import (
	"context"

	"distbound/internal/raster"
)

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

// dropJoiner detaches the dataset's joiner at bound's own level — span
// resolution, base partials and delta accumulators — so the next pointidx
// request attaches a fresh one to the still-resident cover set and
// re-executes from nothing: the cold side of the benchmarks. A level with no
// built artifact is a no-op.
func (e *Engine) dropJoiner(ds *Dataset, bound float64) {
	if ce, ok := coverAt(e, bound); ok {
		ds.joiners[ce.level].Store(nil)
	}
}

// coverAt returns the cover in bound's own level slot iff its build has
// completed, without starting one.
func coverAt(e *Engine, bound float64) (*Cover, bool) {
	level, err := raster.BoundLevel(e.domain, bound)
	if err != nil {
		return nil, false
	}
	c := e.ready[level].Load()
	return c, c != nil
}

// adHoc is a one-aggregate request over n ad-hoc points, for strategyFor
// assertions: the rule reads none of them.
func adHoc(n int, agg Agg, bound float64) Request {
	return Request{Points: PointSet{Pts: make([]Point, n)}, Aggs: []Agg{agg}, Bound: bound}
}

// waitMaintained returns once the dataset's maintainer, if one was started,
// has finished every pass its mutations made due, so a test can tell the work
// it did from the work a read does. Nothing may mutate ds meanwhile.
func waitMaintained(ds *Dataset) { ds.maintainers.Wait() }
