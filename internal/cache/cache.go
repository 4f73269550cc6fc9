// Package cache holds the serving stack's two caching types, one job each.
// Flight is a keyed build singleflight that keeps no finished value: the
// engine's artifacts (a level's cover set, the exact cover, a bound's BRJ
// mask sets) can take seconds to build, so when many concurrent queries miss
// on one key, exactly one goroutine builds it while the others wait, and the
// build stores what it made where readers look (a level slot, an LRU). LRU is
// a bounded least-recently-used map with no builds: the BRJ mask sets and the
// shard layer's merged answers sit in one, so a long-running server does not
// keep one entry per distinct key (a bound, a query shape) ever asked.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// Stats counts a Flight's or an LRU's events since construction; each type
// fills the fields of its own job and leaves the others zero.
type Stats struct {
	// Hits is, for an LRU, the Gets answered from a resident entry; for a
	// Flight, the Do calls answered without starting a build: by its lookup,
	// or by waiting on a build in flight.
	Hits int64
	// Misses is the Gets an LRU found no entry for.
	Misses int64
	// Builds is the number of builds a Flight started.
	Builds int64
	// Coalesced is the number of Flight hits that waited on a build still in
	// flight — the calls deduplication saved from running their own build.
	Coalesced int64
	// Evictions is the number of LRU entries dropped by the capacity bound
	// or replaced by a Put.
	Evictions int64
	// BuildTime is the wall time a Flight's builds ran.
	BuildTime time.Duration
}

// LRU is a bounded, concurrency-safe least-recently-used map. The zero value
// is not usable; construct with NewLRU.
type LRU[K comparable, V any] struct {
	mu sync.Mutex
	// capacity is written under mu; Enabled loads it without.
	capacity atomic.Int64
	items    map[K]*list.Element // each holds a *lruItem[K, V]
	order    list.List           // most recently used at the front
	stats    Stats
}

type lruItem[K comparable, V any] struct {
	key K
	val V
}

// NewLRU returns an LRU holding at most capacity entries; at 0 (or less) it
// keeps nothing.
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	c := &LRU[K, V]{items: map[K]*list.Element{}}
	c.capacity.Store(int64(max(capacity, 0)))
	return c
}

// NewShardedLRU is NewLRU under the name the benchmark harness calls.
// onEvict must be nil: an LRU drops values without a release hook, so any
// other value panics rather than go uncalled.
//
//distbound:api kept for the benchmark harness
func NewShardedLRU[K comparable, V any](capacity int, onEvict func(V)) *LRU[K, V] {
	if onEvict != nil {
		panic("cache: NewShardedLRU takes no onEvict")
	}
	return NewLRU[K, V](capacity)
}

// Get returns the value under key, marking it most recently used, and counts
// a hit or a miss.
//
//distbound:noalloc
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	c.stats.Hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruItem[K, V]).val, true
}

// Put stores v under key as the most recently used entry, then evicts down
// to capacity — at capacity 0, v itself. Replacing an entry counts as an
// eviction.
func (c *LRU[K, V]) Put(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.Remove(el)
		c.stats.Evictions++
	}
	c.items[key] = c.order.PushFront(&lruItem[K, V]{key: key, val: v})
	c.evictOver()
}

// SetCapacity re-bounds the LRU, evicting cold entries as needed; 0 (or
// less) empties it and keeps later Puts from staying.
func (c *LRU[K, V]) SetCapacity(capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity.Store(int64(max(capacity, 0)))
	c.evictOver()
}

// Enabled reports whether the capacity is positive — one atomic load, so a
// caller can skip preparing a value only a Put would take. A racing
// SetCapacity is benign: a Put on a freshly emptied LRU keeps nothing.
//
//distbound:noalloc
func (c *LRU[K, V]) Enabled() bool { return c.capacity.Load() > 0 }

// Len returns the number of resident entries.
//
//distbound:oracle the capacity tests count resident entries with it
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats returns a snapshot of the event counters.
func (c *LRU[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// evictOver drops least recently used entries until the LRU fits its
// capacity. Called with mu held.
func (c *LRU[K, V]) evictOver() {
	for int64(len(c.items)) > c.capacity.Load() {
		it := c.order.Remove(c.order.Back()).(*lruItem[K, V])
		delete(c.items, it.key)
		c.stats.Evictions++
	}
}
