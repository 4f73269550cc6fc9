package distbound

import (
	"context"

	"distbound/internal/cache"
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

// coverAt returns the cover-cache entry keyed on bound's own level iff its
// build has completed, without touching stats or recency.
func coverAt(e *Engine, bound float64) (*Cover, bool) {
	level, err := raster.BoundLevel(e.domain, bound)
	if err != nil {
		return nil, false
	}
	return peekReady(e.covers, level)
}

// peekReady returns the value c holds under key iff its build has completed
// successfully. It reads through EachReady, so it records no stats and leaves
// recency alone: observing a cache does not change what later reads see.
func peekReady[K comparable, V any](c *cache.Cache[K, V], key K) (v V, ok bool) {
	c.EachReady(func(k K, val V) {
		if k == key {
			v, ok = val, true
		}
	})
	return v, ok
}

// adHoc is a one-aggregate request over n ad-hoc points, for strategyFor
// assertions: the rule reads none of them.
func adHoc(n int, agg Agg, bound float64) Request {
	return Request{Points: PointSet{Pts: make([]Point, n)}, Aggs: []Agg{agg}, Bound: bound}
}
