// The engine's query-result cache: warm repeated Do requests over a
// resident dataset skip planning, snapshotting and folding entirely. Heavy
// traffic repeats itself — the same dashboards re-issue the same region sets
// and bounds against a dataset that mutates slowly — so the cache keys one
// executed Response by (dataset identity, mutation epoch, bound, aggregate
// set, strategy override) and serves copies of it until any mutation bumps
// the dataset's epoch, making every prior key unreachable. There is no
// invalidation scan and no lock on the read path beyond one cache-shard
// mutex: invalidation is the epoch moving.
package distbound

import (
	"math"
	"sync/atomic"
	"time"

	"distbound/internal/cache"
	"distbound/internal/join"
)

// DefaultResultCacheCapacity bounds the query-result cache. Entries are one
// deep-copied result column set per distinct (dataset, epoch, bound, agg
// set, override) — a few hundred bytes per region set of ordinary width —
// so the default is sized for request diversity, not memory pressure.
// Resize with SetResultCacheCapacity; 0 disables result caching.
const DefaultResultCacheCapacity = 1024

// resultKey identifies one cacheable request shape against one state of one
// dataset. The registration id (not the name) is the dataset identity, so an
// entry can never be served to a same-named successor — nor, as a store
// pointer would, keep an unregistered dataset's columns reachable while it
// ages out; epoch is the store's mutation counter, so any
// Append/Delete/Compact strands every prior key.
// The key deliberately excludes Workers (every fold's order is fixed by the
// data, so results are bit-identical at every worker count) and Repetitions
// (nothing reads it for a dataset target).
type resultKey struct {
	ds    uint64 // Dataset.id
	epoch uint64
	bound float64
	aggs  uint64 // nibble-packed aggregate set, see join.PackAggs
	strat int8   // forced Strategy, or -1 for the resident rule's
}

// resultCacheKey computes the cache key for a normalized request, reporting
// ok=false — before building anything — when the cache is disabled, and for
// shapes the cache does not serve: ad-hoc point-set targets (no dataset
// identity to key on), Explain requests (the rendering is not cached), NaN
// bounds (NaN keys can never be found again), and oversized aggregate sets.
// The epoch is read here — before execution — which is what makes a later
// hit linearizable: the cached entry's data is at least as new as the epoch
// in its key, so a request hitting that key observes a state no older than
// one it could have observed by executing.
//
//distbound:noalloc
func (e *Engine) resultCacheKey(req Request) (resultKey, bool) {
	if !e.results.Enabled() || req.Dataset == nil || req.Explain || math.IsNaN(req.Bound) {
		return resultKey{}, false
	}
	packed, ok := join.PackAggs(req.Aggs)
	if !ok {
		return resultKey{}, false
	}
	k := resultKey{
		ds:    req.Dataset.id,
		epoch: req.Dataset.src.Epoch(),
		bound: req.Bound,
		aggs:  packed,
		strat: -1,
	}
	if req.Strategy != nil {
		k.strat = int8(*req.Strategy)
	}
	return k, true
}

// cachedResponse is one resident entry: a refcounted deep copy of an
// executed Response, fully decoupled from the sync.Pool scratch that backed
// the original. The cache itself holds one reference; every hit handed out
// holds another until its Release. Releasing a cached Response is therefore
// a refcount decrement — never a pool return, so the double-return class of
// bugs cannot exist on this path — and the memory is reclaimed by the
// collector once the last holder lets go.
type cachedResponse struct {
	results  []Result
	strategy Strategy
	plan     Plan
	refs     atomic.Int64
}

// newCachedResponse deep-copies an executed response: fresh result columns
// sharing nothing with resp's scratch. Only dataset requests are cached, and
// their rule-fixed plan carries no cost table to clone.
func newCachedResponse(resp *Response) *cachedResponse {
	c := &cachedResponse{strategy: resp.Strategy, plan: resp.Plan}
	c.refs.Store(1) // the cache's own reference
	c.results = make([]Result, len(resp.Results))
	for i, r := range resp.Results {
		cr := Result{Agg: r.Agg, Counts: append([]int64(nil), r.Counts...)}
		if r.Sums != nil {
			cr.Sums = append([]float64(nil), r.Sums...)
		}
		if r.Extremes != nil {
			cr.Extremes = append([]float64(nil), r.Extremes...)
		}
		c.results[i] = cr
	}
	return c
}

// respond materializes one hit: a by-value Response sharing the entry's
// read-only columns, holding one reference until its Release. The probe
// counters stay zero — a hit probes nothing. Allocation-free.
//
//distbound:noalloc
func (c *cachedResponse) respond(start time.Time) Response {
	c.refs.Add(1)
	return Response{
		Results:  c.results,
		Strategy: c.strategy,
		Plan:     c.plan,
		Wall:     time.Since(start),
		cached:   c,
	}
}

// release drops one reference. The entry is garbage once every holder (the
// cache included) has released; a negative count means a Response was
// released twice, which the Release contract forbids.
//
//distbound:noalloc
func (c *cachedResponse) release() {
	if c.refs.Add(-1) < 0 {
		panic("distbound: cached Response released more than once")
	}
}

// newResultCache builds the engine's result cache; eviction — by capacity,
// replacement, or disabling — drops the cache's reference.
func newResultCache() *cache.ShardedLRU[resultKey, *cachedResponse] {
	return cache.NewShardedLRU[resultKey, *cachedResponse](
		DefaultResultCacheCapacity,
		func(c *cachedResponse) { c.release() },
	)
}

// SetResultCacheCapacity bounds how many distinct query results stay
// resident (default DefaultResultCacheCapacity); least recently used
// entries are evicted. 0 disables result caching and drops every resident
// entry — Responses already handed out stay valid, they hold their own
// references.
func (e *Engine) SetResultCacheCapacity(n int) {
	e.results.SetCapacity(n)
}

// ResultCacheStats reports the query-result cache's counters: Hits and
// Misses count cacheable Do requests served warm vs executed, Evictions
// counts entries dropped by the capacity bound or replaced by a racing
// insert. (Builds and Coalesced stay zero — result entries are
// by-products of execution, never built by the cache.) The index-artifact
// caches report separately through CacheStats.
func (e *Engine) ResultCacheStats() cache.Stats {
	return e.results.Stats()
}
