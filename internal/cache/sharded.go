// ShardedLRU is the result-cache flavor of the package: a bounded map from
// comparable keys to already-built values, sharded by key hash so that the
// hot hit path — one short critical section moving a node to the front of
// its shard's recency list — never contends across shards. Unlike Cache it
// has no build deduplication: result caching is read-mostly and a duplicated
// execution on a racing miss is cheaper than a coordination point on every
// hit. The hit path performs no allocation.
package cache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// lruShards is the fixed shard count (a power of two, so the shard pick is a
// mask). Sixteen ways is enough to make lock contention unmeasurable at the
// request rates one process serves.
const lruShards = 16

// ShardedLRU is a bounded, concurrency-safe map with per-shard LRU eviction.
// The zero value is not usable; construct with NewShardedLRU. A capacity of
// zero disables the cache entirely: Get always misses and Put drops the
// value (through onEvict, so refcounted values are still released).
type ShardedLRU[K comparable, V any] struct {
	seed    maphash.Seed
	onEvict func(V) // called outside shard locks for every dropped value; may be nil
	off     atomic.Bool
	shards  [lruShards]lruShard[K, V]
}

// lruShard is one lock domain: a map into an intrusive doubly-linked recency
// ring anchored at root (root.next = most recent, root.prev = least).
type lruShard[K comparable, V any] struct {
	mu   sync.Mutex
	m    map[K]*lruNode[K, V]
	root lruNode[K, V]
	cap  int

	hits, misses, evictions int64
}

type lruNode[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruNode[K, V]
}

// NewShardedLRU returns a cache bounded to roughly capacity entries
// (capacity is split evenly across shards and enforced per shard, so the
// worst-case resident count rounds up by at most the shard count). onEvict,
// when non-nil, is invoked — outside any cache lock — for every value the
// cache drops: capacity evictions, replacements by Put on an existing key,
// and values rejected because the cache is disabled.
func NewShardedLRU[K comparable, V any](capacity int, onEvict func(V)) *ShardedLRU[K, V] {
	c := &ShardedLRU[K, V]{seed: maphash.MakeSeed(), onEvict: onEvict}
	for i := range c.shards {
		s := &c.shards[i]
		s.m = make(map[K]*lruNode[K, V])
		s.root.prev, s.root.next = &s.root, &s.root
	}
	c.SetCapacity(capacity)
	return c
}

//distbound:noalloc
func (c *ShardedLRU[K, V]) shard(k K) *lruShard[K, V] {
	return &c.shards[maphash.Comparable(c.seed, k)&(lruShards-1)]
}

// Get returns the cached value for k, marking it most recently used. The hit
// path allocates nothing.
//
//distbound:noalloc
func (c *ShardedLRU[K, V]) Get(k K) (V, bool) {
	s := c.shard(k)
	s.mu.Lock()
	n, ok := s.m[k]
	if !ok {
		s.misses++
		s.mu.Unlock()
		var zero V
		return zero, false
	}
	s.hits++
	// Unlink and splice to the front of the recency ring.
	n.prev.next = n.next
	n.next.prev = n.prev
	n.prev = &s.root
	n.next = s.root.next
	s.root.next.prev = n
	s.root.next = n
	v := n.val
	s.mu.Unlock()
	return v, true
}

// Put inserts or replaces the value for k. A replaced value and any entries
// evicted to respect the capacity bound are handed to onEvict after the
// shard lock is released.
func (c *ShardedLRU[K, V]) Put(k K, v V) {
	s := c.shard(k)
	s.mu.Lock()
	if s.cap <= 0 {
		s.evictions++
		s.mu.Unlock()
		if c.onEvict != nil {
			c.onEvict(v)
		}
		return
	}
	var dropped []V
	if n, ok := s.m[k]; ok {
		dropped = append(dropped, n.val)
		s.evictions++
		n.val = v
		n.prev.next = n.next
		n.next.prev = n.prev
		n.prev = &s.root
		n.next = s.root.next
		s.root.next.prev = n
		s.root.next = n
	} else {
		n := &lruNode[K, V]{key: k, val: v, prev: &s.root, next: s.root.next}
		s.root.next.prev = n
		s.root.next = n
		s.m[k] = n
		dropped = s.evictOverLocked(dropped)
	}
	s.mu.Unlock()
	c.release(dropped)
}

// evictOverLocked trims the shard to its capacity from the cold end,
// appending dropped values to out. Caller holds s.mu.
func (s *lruShard[K, V]) evictOverLocked(out []V) []V {
	for len(s.m) > s.cap {
		last := s.root.prev
		last.prev.next = &s.root
		s.root.prev = last.prev
		delete(s.m, last.key)
		out = append(out, last.val)
		s.evictions++
	}
	return out
}

func (c *ShardedLRU[K, V]) release(vs []V) {
	if c.onEvict == nil {
		return
	}
	for _, v := range vs {
		c.onEvict(v)
	}
}

// SetCapacity re-bounds the cache, evicting cold entries as needed. Zero (or
// negative) disables it and drops everything resident.
func (c *ShardedLRU[K, V]) SetCapacity(capacity int) {
	per := 0
	if capacity > 0 {
		per = (capacity + lruShards - 1) / lruShards
	}
	c.off.Store(per <= 0)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.cap = per
		var dropped []V
		if per <= 0 {
			for k, n := range s.m {
				delete(s.m, k)
				dropped = append(dropped, n.val)
				s.evictions++
			}
			s.root.prev, s.root.next = &s.root, &s.root
		} else {
			dropped = s.evictOverLocked(dropped)
		}
		s.mu.Unlock()
		c.release(dropped)
	}
}

// Enabled reports whether the cache currently admits entries — one atomic
// load, so callers can skip preparing a value (a deep copy, say) they would
// only hand to a disabled Put. A racing SetCapacity is benign: Put on a
// freshly disabled cache still rejects through onEvict.
//
//distbound:noalloc
func (c *ShardedLRU[K, V]) Enabled() bool { return !c.off.Load() }

// Len returns the resident entry count.
//
//distbound:oracle the capacity tests count resident entries with it
func (c *ShardedLRU[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Stats aggregates counters across shards into the package's Stats shape:
// Hits and Misses count Get outcomes, Evictions counts every dropped entry
// (capacity, replacement, or disabled-cache rejection); Builds and Coalesced
// stay zero — a ShardedLRU never builds.
func (c *ShardedLRU[K, V]) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		s.mu.Unlock()
	}
	return st
}
