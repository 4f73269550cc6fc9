// Package cache provides the one bounded, concurrency-safe LRU of the
// serving stack, keyed by comparable keys. It has two uses. The engine's
// artifacts (cover sets, the exact cover, BRJ mask canvases) are built
// through GetOrBuildCtx with singleflight-style deduplication: a build can
// take seconds at fine distance bounds, so when many concurrent queries miss
// on the same key, exactly one goroutine runs it while the others wait for
// its result. The shard layer's merged answers are stored with Put and read
// with Get. The capacity bound keeps long-running servers from accumulating
// one entry per distinct key (a BRJ bound, a query shape) ever queried; the
// cover cache holds every level and only builds them: the engine reads ready
// covers from its own slots, so its Hits count waits on builds, not reads.
package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// errBuildPanicked is what every waiter on a build receives when that build
// panics; the panic itself is contained on the builder goroutine.
var errBuildPanicked = errors.New("cache: build panicked")

// Stats counts cache events since construction.
type Stats struct {
	// Hits is the number of lookups (Get or GetOrBuildCtx) answered from a
	// resident entry.
	Hits int64
	// Misses is the number of GetOrBuildCtx calls that found no entry; a Get
	// that misses records nothing.
	Misses int64
	// Builds is the number of build functions actually executed (one per
	// miss; concurrent callers arriving during a build count as hits).
	Builds int64
	// Coalesced is the number of hits that landed on a build still in
	// flight and waited for it — the calls deduplication saved from
	// running their own build.
	Coalesced int64
	// Evictions is the number of entries dropped by the capacity bound or
	// replaced by a Put.
	Evictions int64
	// BuildTime is the wall time spent inside build functions, slot waits excluded.
	BuildTime time.Duration
}

// entry is one cache slot. ready is closed once val/err are final; waiters
// block on it without holding the cache lock, so a slow build never stalls
// lookups of other keys. waiters counts the callers still interested in an
// in-flight build; when the last of them cancels, cancelBuild cancels the
// build's own context so abandoned work stops burning CPU.
type entry[K comparable, V any] struct {
	key         K
	val         V
	err         error
	ready       chan struct{}
	waiters     int
	cancelBuild context.CancelFunc
	// abandoned marks an in-flight build whose last waiter canceled: its
	// context is canceled and it is doomed to fail, so later lookups must
	// not coalesce onto it — they replace it with a fresh build instead of
	// inheriting someone else's cancellation.
	abandoned  bool
	prev, next *entry[K, V] // LRU list, most recent at head
}

// Cache is a bounded LRU with deduplicated builds. The zero value is not
// usable; construct with New.
//
// The capacity also gates build concurrency: at most capacity builds (at
// least one) for distinct keys run at once, the rest queue. Without the
// gate, a cold burst of distinct keys would hold arbitrarily many in-flight
// artifacts simultaneously — unbounded peak memory on exactly the large
// artifacts the capacity bound exists to contain.
type Cache[K comparable, V any] struct {
	mu        sync.Mutex
	buildSlot *sync.Cond // signaled when a build finishes or the capacity changes
	building  int
	// capacity is written under mu; Enabled loads it without.
	capacity atomic.Int64
	entries  map[K]*entry[K, V]
	head     *entry[K, V] // most recently used
	tail     *entry[K, V] // least recently used
	stats    Stats
}

// New returns a cache holding at most capacity entries. A capacity of 0 (or
// less) holds nothing: every build still runs and answers its callers, one
// at a time, and is dropped as it completes.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{entries: map[K]*entry[K, V]{}}
	c.buildSlot = sync.NewCond(&c.mu)
	c.capacity.Store(int64(max(capacity, 0)))
	return c
}

// NewShardedLRU is New under the name the benchmark harness calls. onEvict
// must be nil: a Cache drops values without a release hook, so any other
// value panics rather than go uncalled.
//
//distbound:api kept for the benchmark harness
func NewShardedLRU[K comparable, V any](capacity int, onEvict func(V)) *Cache[K, V] {
	if onEvict != nil {
		panic("cache: NewShardedLRU takes no onEvict")
	}
	return New[K, V](capacity)
}

// GetOrBuildCtx returns the cached value for key, building it with build on a
// miss. Concurrent calls for the same missing key run build once and share
// the outcome. A failed build is not cached: every waiter receives the error
// and the next call retries. The wait — on a build this call starts or on one
// already in flight — aborts with ctx.Err() when ctx is canceled, without
// disturbing the build or its other waiters: builds run on their own
// goroutine, so the cache and its singleflight state stay consistent no
// matter when callers leave. Each in-flight build carries its own context,
// passed to the build function and canceled only when the last interested
// caller has gone — a build every caller abandoned stops burning CPU (if it
// watches its context), fails with that context's error, and is dropped so
// the next call retries; a build that still has waiters runs to completion
// and is cached as usual. A panicking build fails every waiter with an error
// and is contained on the builder goroutine — it never crashes the process.
//
//distbound:allow-background the build context is shared by all waiters and must outlive any one caller; cancellation is refcounted separately
func (c *Cache[K, V]) GetOrBuildCtx(ctx context.Context, key K, build func(context.Context) (V, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.lookup(key)
	if ok {
		c.noteHit(e)
		c.mu.Unlock()
	} else {
		bctx, cancel := context.WithCancel(context.Background())
		e = c.insertMiss(key, cancel)
		c.mu.Unlock()
		go func() {
			defer cancel()
			// Contain build panics: on this unsupervised goroutine a re-raised
			// panic would kill the whole process, not one request. runBuild's
			// own deferred cleanup has already released the build slot,
			// dropped the entry and failed every waiter with errBuildPanicked
			// by the time the panic reaches here, so swallowing it loses
			// nothing.
			defer func() { _ = recover() }()
			c.runBuild(e, func() (V, error) { return build(bctx) })
		}()
	}
	select {
	case <-e.ready:
		return e.val, e.err
	case <-ctx.Done():
	}
	// Lost interest. If the result landed in the same instant, serve it;
	// otherwise withdraw, and as the last waiter out, cancel the build.
	c.mu.Lock()
	select {
	case <-e.ready:
		c.mu.Unlock()
		return e.val, e.err
	default:
	}
	e.waiters--
	if e.waiters == 0 {
		e.cancelBuild()
		e.abandoned = true
	}
	c.mu.Unlock()
	var zero V
	return zero, ctx.Err()
}

// lookup returns the live entry under key, dropping (and reporting missing)
// an abandoned in-flight build so the caller starts a fresh one instead of
// coalescing onto work that is doomed to fail with someone else's
// cancellation. The abandoned builder's own cleanup no longer matches the
// map slot and leaves the replacement alone. Called with mu held.
func (c *Cache[K, V]) lookup(key K) (*entry[K, V], bool) {
	e, ok := c.entries[key]
	if ok && e.abandoned {
		c.remove(e)
		return nil, false
	}
	return e, ok
}

// noteHit records a lookup that found an entry: stats, recency, and — for an
// entry whose build is still in flight — interest registration, so the build
// is not canceled out from under this caller. Called with mu held.
func (c *Cache[K, V]) noteHit(e *entry[K, V]) {
	c.stats.Hits++
	select {
	case <-e.ready:
	default:
		c.stats.Coalesced++
		e.waiters++
	}
	c.moveToFront(e)
}

// insertMiss records a lookup miss and installs the in-flight entry its
// build will complete, with the caller registered as the first interested
// waiter. Called with mu held.
func (c *Cache[K, V]) insertMiss(key K, cancel context.CancelFunc) *entry[K, V] {
	c.stats.Misses++
	c.stats.Builds++
	e := &entry[K, V]{key: key, ready: make(chan struct{}), waiters: 1, cancelBuild: cancel}
	c.entries[key] = e
	c.pushFront(e)
	return e
}

// runBuild executes one entry's build — waiting for a build slot first — and
// completes the entry: failed builds are dropped so a later call retries,
// successful ones trigger the deferred-capacity eviction, and e.ready is
// closed either way, releasing every waiter.
func (c *Cache[K, V]) runBuild(e *entry[K, V], build func() (V, error)) {
	// Wait for a build slot. Waiters coalescing onto this key block on
	// e.ready without the lock, so queuing here stalls only other builders.
	c.mu.Lock()
	for int64(c.building) >= max(c.capacity.Load(), 1) {
		c.buildSlot.Wait()
	}
	c.building++
	c.mu.Unlock()

	// The deferred cleanup releases the build slot on every exit, and — if
	// build panicked — drops the entry and releases waiters with an error
	// before the panic propagates; otherwise the never-closed ready channel
	// would wedge every later call for this key forever.
	completed := false
	defer func() {
		c.mu.Lock()
		c.building--
		c.buildSlot.Broadcast()
		if !completed {
			if c.entries[e.key] == e {
				c.remove(e)
			}
			e.err = errBuildPanicked
			close(e.ready)
		}
		c.mu.Unlock()
	}()

	t0 := time.Now()
	e.val, e.err = build()
	completed = true
	c.mu.Lock()
	c.stats.BuildTime += time.Since(t0)
	// Close under mu: the cancel path's readiness re-check also runs under
	// mu, so a completed build can never be mistaken for one in flight.
	close(e.ready)
	if e.err != nil {
		// Drop the failed entry so a later call can retry; only remove our
		// own entry in case a concurrent retry already replaced it.
		if c.entries[e.key] == e {
			c.remove(e)
		}
	} else {
		// Completion wins over a racing abandonment: a last waiter whose
		// context fired in the instant between build() returning and this
		// lock may have flagged the entry, but the value is final and
		// servable, so it must not be evicted on the next lookup. Evict for
		// capacity only now that the build has succeeded: evicting at insert
		// time would let a build that ends up failing flush a warm resident
		// entry and leave nothing in its place. The entry is ready, so at
		// capacity 0 this drops it too.
		e.abandoned = false
		c.evictOver()
	}
	c.mu.Unlock()
}

// lookupReady returns the entry under key iff its build has completed
// successfully, or it was Put; missing, in-flight, failed and abandoned
// entries all report false. Called with mu held.
func (c *Cache[K, V]) lookupReady(key K) (*entry[K, V], bool) {
	e, ok := c.entries[key]
	if !ok || e.abandoned || !e.done() || e.err != nil {
		return nil, false
	}
	return e, true
}

// done reports whether e's value is final: built, failed, or Put.
func (e *entry[K, V]) done() bool {
	select {
	case <-e.ready:
		return true
	default:
		return false
	}
}

// Get returns the value cached under key iff its build has completed
// successfully (or it was Put), recording a hit and refreshing recency
// exactly as GetOrBuildCtx's warm path would. A missing, in-flight or
// abandoned entry returns false without recording anything — a caller that
// falls back to GetOrBuildCtx lets its stats tell the full story, and one
// that does not counts its own misses. It is the allocation-free warm path:
// unlike GetOrBuildCtx it takes no build closure, so a hot serving loop
// heap-allocates nothing to ask for a value that is almost always resident.
//
//distbound:noalloc
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lookupReady(key)
	if !ok {
		var zero V
		return zero, false
	}
	c.stats.Hits++
	c.moveToFront(e)
	return e.val, true
}

// Put stores v under key as the most recently used entry, then evicts down
// to capacity — at capacity 0, v itself. Replacing a completed entry counts
// as an eviction. An in-flight build under key is left alone: its waiters
// keep what it builds.
func (c *Cache[K, V]) Put(key K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.lookup(key); ok {
		if !old.done() {
			return
		}
		// A new entry rather than a new val: waiters read a completed
		// entry's val without the lock.
		c.remove(old)
		c.stats.Evictions++
	}
	e := &entry[K, V]{key: key, val: v, ready: make(chan struct{})}
	close(e.ready)
	c.entries[key] = e
	c.pushFront(e)
	c.evictOver()
}

// SetCapacity re-bounds the cache, evicting cold entries as needed; 0 (or
// less) empties it and keeps later Puts from staying.
func (c *Cache[K, V]) SetCapacity(capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity.Store(int64(max(capacity, 0)))
	c.evictOver()
	c.buildSlot.Broadcast()
}

// Enabled reports whether the capacity is positive — one atomic load, so a
// caller can skip preparing a value only a Put would take. A racing
// SetCapacity is benign: a Put on a freshly emptied cache keeps nothing.
//
//distbound:noalloc
func (c *Cache[K, V]) Enabled() bool { return c.capacity.Load() > 0 }

// Len returns the entry count, in-flight builds included.
//
//distbound:oracle the capacity tests count resident entries with it
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the event counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// evictOver drops LRU entries until the cache fits its capacity. Entries
// whose build is still in flight are skipped: waiters hold them, and
// dropping the map slot would let a duplicate build start. Called with mu
// held.
func (c *Cache[K, V]) evictOver() {
	capacity := int(c.capacity.Load())
	for e := c.tail; len(c.entries) > capacity && e != nil; {
		prev := e.prev
		if e.done() {
			c.remove(e)
			c.stats.Evictions++
		}
		e = prev
	}
}

// pushFront inserts e at the head. Called with mu held.
func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// moveToFront marks e most recently used. Called with mu held.
func (c *Cache[K, V]) moveToFront(e *entry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// remove deletes e from the map and list. Called with mu held.
func (c *Cache[K, V]) remove(e *entry[K, V]) {
	delete(c.entries, e.key)
	c.unlink(e)
}

// unlink detaches e from the list. Called with mu held.
func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
