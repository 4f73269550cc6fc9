package cache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// get is the engine's mask shape: Do under a context that never cancels,
// looking key up in c and storing a build's value there once it succeeds,
// with a build that ignores its own context.
func get[K comparable, V any](f *Flight[K, V], c *LRU[K, V], key K, build func() (V, error)) (V, error) {
	return f.Do(context.Background(), key, func() (V, bool) { return c.Get(key) }, func(context.Context) (V, error) {
		v, err := build()
		if err == nil {
			c.Put(key, v)
		}
		return v, err
	})
}

// none is the lookup of a Flight whose builds store nothing.
func none[V any]() (V, bool) {
	var zero V
	return zero, false
}

// peek returns the value resident under key. It reads the entries under the
// lock, so it records no stats and leaves recency alone.
func peek[K comparable, V any](c *LRU[K, V], key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*lruItem[K, V]).val, true
	}
	var zero V
	return zero, false
}

// ready reports whether key is resident.
func ready[K comparable, V any](c *LRU[K, V], key K) bool {
	_, ok := peek(c, key)
	return ok
}

// TestGetOrBuildCachesValue: a key builds once; later calls find what the
// build stored through their lookup, which Do runs under its lock.
func TestGetOrBuildCachesValue(t *testing.T) {
	f, c := &Flight[int, string]{}, NewLRU[int, string](4)
	builds := 0
	build := func() (string, error) { builds++; return "v", nil }
	for i := 0; i < 3; i++ {
		v, err := get(f, c, 7, build)
		if err != nil || v != "v" {
			t.Fatalf("get %d: %q, %v", i, v, err)
		}
	}
	if builds != 1 {
		t.Errorf("built %d times", builds)
	}
	if st := f.Stats(); st.Builds != 1 || st.Hits != 2 || st.Coalesced != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU[int, int](2)
	c.Put(1, 10)
	c.Put(2, 20)
	c.Get(1)     // bump 1; 2 is now LRU
	c.Put(3, 30) // evicts 2
	if ready(c, 2) {
		t.Error("2 not evicted")
	}
	if !ready(c, 1) || !ready(c, 3) {
		t.Error("wrong survivors")
	}
	if c.Len() != 2 {
		t.Errorf("len %d", c.Len())
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions %d", ev)
	}
}

func TestFailedBuildNotCached(t *testing.T) {
	f, c := &Flight[int, int]{}, NewLRU[int, int](2)
	boom := errors.New("boom")
	if _, err := get(f, c, 1, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	if ready(c, 1) {
		t.Error("failed build stored")
	}
	v, err := get(f, c, 1, func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("retry: %d, %v", v, err)
	}
	if b := f.Stats().Builds; b != 2 {
		t.Errorf("%d builds, want the failed one and its retry", b)
	}
}

// TestFailedBuildDoesNotEvictResidents: a build enters the LRU only once it
// succeeds, so a failed one leaves a warm resident where it was.
func TestFailedBuildDoesNotEvictResidents(t *testing.T) {
	f, c := &Flight[int, int]{}, NewLRU[int, int](1)
	get(f, c, 1, func() (int, error) { return 1, nil })
	if _, err := get(f, c, 2, func() (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Fatal("build error lost")
	}
	if !ready(c, 1) {
		t.Error("failed build for key 2 evicted the resident key 1")
	}
	// A successful build still evicts the LRU resident.
	get(f, c, 3, func() (int, error) { return 3, nil })
	if ready(c, 1) || !ready(c, 3) || c.Len() != 1 {
		t.Error("successful build did not take over the capacity-1 LRU")
	}
}

func TestPanickingBuildDoesNotWedgeKey(t *testing.T) {
	f, c := &Flight[int, int]{}, NewLRU[int, int](2)
	waiting := make(chan struct{})
	gotErr := make(chan error, 1)
	go func() {
		// Coalesce onto the panicking build: this call must be released
		// with an error, not block forever.
		<-waiting
		_, err := get(f, c, 1, func() (int, error) { return 9, nil })
		gotErr <- err
	}()
	if _, err := get(f, c, 1, func() (int, error) {
		close(waiting)
		// Give the waiter a moment to coalesce before panicking.
		for i := 0; i < 1000; i++ {
			runtime.Gosched()
		}
		panic("builder bug")
	}); err == nil {
		t.Error("the caller that started the panicking build got a nil error")
	}
	// The waiter either coalesced onto the panicking build and failed with
	// it, or raced in after the cleanup and rebuilt: then its 9 is stored,
	// and the next call finds it. A hang is the bug.
	want := 42
	if err := <-gotErr; err == nil {
		want = 9
	}
	// The key is not wedged: the next call answers, from a fresh build or the
	// waiter's.
	v, err := get(f, c, 1, func() (int, error) { return 42, nil })
	if err != nil || v != want {
		t.Fatalf("key wedged after panic: %d, %v; want %d", v, err, want)
	}
}

func TestConcurrentMissesCoalesce(t *testing.T) {
	f, c := &Flight[int, int]{}, NewLRU[int, int](8)
	var builds atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := 0; k < 4; k++ {
				v, err := get(f, c, k, func() (int, error) {
					builds.Add(1)
					return k + 100, nil
				})
				if err != nil || v != k+100 {
					t.Errorf("key %d: %d, %v", k, v, err)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if b := builds.Load(); b != 4 {
		t.Errorf("%d builds for 4 keys across 16 goroutines", b)
	}
}

func TestCoalescedWaitsAreCounted(t *testing.T) {
	f, c := &Flight[int, int]{}, NewLRU[int, int](2)
	inBuild := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		get(f, c, 1, func() (int, error) {
			close(inBuild)
			<-release
			return 1, nil
		})
		close(done)
	}()
	<-inBuild // the build is provably in flight
	waited := make(chan struct{})
	go func() {
		get(f, c, 1, func() (int, error) { return 0, errors.New("must coalesce") })
		close(waited)
	}()
	// The waiter registers as a hit (coalesced) before blocking on the
	// build; poll until it has.
	for f.Stats().Coalesced == 0 {
		runtime.Gosched()
	}
	close(release)
	<-done
	<-waited
	st := f.Stats()
	if st.Coalesced != 1 || st.Builds != 1 {
		t.Errorf("stats %+v: want 1 coalesced wait on 1 build", st)
	}
}

// TestPeekDoesNotBumpRecency: the test helper's read leaves the LRU order
// alone, so the tests that observe an LRU through it do not change it.
func TestPeekDoesNotBumpRecency(t *testing.T) {
	c := NewLRU[int, int](2)
	c.Put(1, 1)
	c.Put(2, 2)
	if v, ok := peek(c, 1); !ok || v != 1 {
		t.Fatalf("peek: %d, %v", v, ok)
	}
	c.Put(3, 3) // evicts 1 (peek did not bump)
	if ready(c, 1) {
		t.Error("peek bumped recency")
	}
}

func TestConcurrentMixedKeysUnderCapacityPressure(t *testing.T) {
	f, c := &Flight[string, int]{}, NewLRU[string, int](3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("k%d", (g+i)%6)
				if v, err := get(f, c, k, func() (int, error) { return len(k), nil }); err != nil || v != len(k) {
					t.Errorf("get %s: %d, %v", k, v, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 3 {
		t.Errorf("len %d exceeds capacity", c.Len())
	}
}

func TestGetOrBuildCtxHitAndMiss(t *testing.T) {
	f := &Flight[string, int]{}
	var stored atomic.Int64
	lookup := func() (int, bool) { v := stored.Load(); return int(v), v != 0 }
	v, err := f.Do(context.Background(), "a", lookup, func(context.Context) (int, error) {
		stored.Store(7)
		return 7, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("miss: got (%d, %v)", v, err)
	}
	v, err = f.Do(context.Background(), "a", lookup, func(context.Context) (int, error) {
		t.Error("hit ran a build")
		return 0, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("hit: got (%d, %v)", v, err)
	}
	if st := f.Stats(); st.Builds != 1 || st.Hits != 1 {
		t.Errorf("stats %+v, want 1 build / 1 hit", st)
	}
}

// TestGetOrBuildCtxCanceledWaiterDetaches pins the work-conserving half of
// the contract: a caller that cancels while another caller still waits gets
// ctx.Err() immediately, the build keeps running for the survivor, and the
// artifact is stored.
func TestGetOrBuildCtxCanceledWaiterDetaches(t *testing.T) {
	f, c := &Flight[string, int]{}, NewLRU[string, int](2)
	enter := make(chan struct{})
	release := make(chan struct{})
	var built atomic.Int32
	lookup := func() (int, bool) { return c.Get("k") }
	build := func(context.Context) (int, error) {
		close(enter)
		<-release
		built.Add(1)
		c.Put("k", 42)
		return 42, nil
	}

	survivor := make(chan error, 1)
	go func() {
		_, err := f.Do(context.Background(), "k", lookup, build)
		survivor <- err
	}()
	<-enter // the build is in flight

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Do(ctx, "k", lookup, build); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v, want context.Canceled", err)
	}

	close(release)
	if err := <-survivor; err != nil {
		t.Fatalf("surviving waiter got %v", err)
	}
	if v, ok := peek(c, "k"); !ok || v != 42 {
		t.Errorf("artifact not stored after a co-waiter canceled: (%d, %v)", v, ok)
	}
	if built.Load() != 1 {
		t.Errorf("build ran %d times", built.Load())
	}
}

// TestGetOrBuildCtxLastWaiterCancelsBuild pins the CPU-conserving half: when
// the last interested caller cancels, the build's own context is canceled, a
// ctx-aware build aborts, and a later call builds from scratch.
func TestGetOrBuildCtxLastWaiterCancelsBuild(t *testing.T) {
	f := &Flight[string, int]{}
	enter := make(chan struct{})
	aborted := make(chan struct{})
	build := func(bctx context.Context) (int, error) {
		close(enter)
		<-bctx.Done() // a context-aware build notices abandonment
		close(aborted)
		return 0, bctx.Err()
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := f.Do(ctx, "k", none[int], build)
		errc <- err
	}()
	<-enter
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller got %v, want context.Canceled", err)
	}
	<-aborted // the build's context really was canceled

	v, err := f.Do(context.Background(), "k", none[int], func(context.Context) (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("retry after aborted build: (%d, %v)", v, err)
	}
}

// TestGetOrBuildCtxCancelSparesRemainingWaiter: a caller whose context never
// cancels stays interested, so a second caller canceling must not cancel the
// build out from under it.
func TestGetOrBuildCtxCancelSparesRemainingWaiter(t *testing.T) {
	f, c := &Flight[string, int]{}, NewLRU[string, int](2)
	enter := make(chan struct{})
	release := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := get(f, c, "k", func() (int, error) {
			close(enter)
			<-release
			return 5, nil
		})
		errc <- err
	}()
	<-enter

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.Do(ctx, "k", none[int], nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("ctx waiter got %v", err)
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("the caller that stayed got %v", err)
	}
	if v, ok := peek(c, "k"); !ok || v != 5 {
		t.Errorf("artifact lost: (%d, %v)", v, ok)
	}
}

// TestAbandonedBuildIsReplacedNotJoined: a call landing on a key whose build
// every waiter abandoned must start a fresh build rather than coalesce onto
// work doomed to fail with someone else's cancellation.
func TestAbandonedBuildIsReplacedNotJoined(t *testing.T) {
	f := &Flight[string, int]{}
	enter := make(chan struct{})
	stuck := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := f.Do(ctx, "k", none[int], func(context.Context) (int, error) {
			close(enter)
			<-stuck // ignores its context: the abandoned build lingers
			return 1, nil
		})
		errc <- err
	}()
	<-enter
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled caller got %v", err)
	}
	// The new caller gets its own build, not the doomed one: it has started
	// one (or, wrongly, joined) before the abandoned build is let go.
	got := make(chan int, 1)
	go func() {
		v, _ := f.Do(context.Background(), "k", none[int], func(context.Context) (int, error) { return 2, nil })
		got <- v
	}()
	for st := f.Stats(); st.Builds < 2 && st.Coalesced == 0; st = f.Stats() {
		runtime.Gosched()
	}
	close(stuck)
	if v := <-got; v != 2 {
		t.Fatalf("replacement call got %d, want its own build's 2", v)
	}
}

// TestGetOrBuildCtxPanickingBuildContained: on the detached builder
// goroutine a panic must fail the waiters and be swallowed — crashing the
// process would turn one bad build into a full outage.
func TestGetOrBuildCtxPanickingBuildContained(t *testing.T) {
	f := &Flight[string, int]{}
	if _, err := f.Do(context.Background(), "k", none[int], func(context.Context) (int, error) {
		panic("builder bug")
	}); err == nil {
		t.Fatal("panicking build returned a nil error")
	}
	// The key is not wedged and the process is alive: a fresh build works.
	v, err := f.Do(context.Background(), "k", none[int], func(context.Context) (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("key wedged after contained panic: (%d, %v)", v, err)
	}
}

// The TestShardedLRU tests build their cache through NewShardedLRU, the
// constructor the benchmark harness calls, and pin the Put/Get contract the
// shard layer's result cache relies on.

func TestShardedLRUBasics(t *testing.T) {
	c := NewShardedLRU[int, string](64, nil)
	if _, ok := c.Get(1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, "one")
	if v, ok := c.Get(1); !ok || v != "one" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	c.Put(1, "uno")
	if v, ok := c.Get(1); !ok || v != "uno" {
		t.Fatalf("after replace Get(1) = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 hits, 1 miss, 1 eviction (replacement)", st)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestShardedLRUEvictsColdEntries: the capacity is exact and eviction is
// globally least-recently-used, so after overfilling, the residents are the
// hot key and the newest others.
func TestShardedLRUEvictsColdEntries(t *testing.T) {
	const capacity, puts = 64, 500
	c := NewShardedLRU[int, int](capacity, nil)
	for i := 0; i < puts; i++ {
		c.Put(i, i)
		c.Get(0) // keep key 0 hot
	}
	if got := c.Len(); got != capacity {
		t.Fatalf("Len = %d, want exactly the capacity %d", got, capacity)
	}
	if st := c.Stats(); st.Evictions != puts-capacity {
		t.Fatalf("Stats.Evictions = %d, want %d", st.Evictions, puts-capacity)
	}
	for i := puts - capacity + 1; i < puts; i++ {
		if !ready(c, i) {
			t.Fatalf("key %d, among the %d newest, was evicted", i, capacity-1)
		}
	}
	if ready(c, puts-capacity) {
		t.Fatalf("key %d outlived the hot key's claim on a slot", puts-capacity)
	}
	if _, ok := c.Get(0); !ok {
		t.Fatal("hot key 0 was evicted while colder entries survived")
	}
}

// TestShardedLRUSetCapacity: capacity 0 empties the cache and keeps later
// Puts from staying; re-enabling it works.
func TestShardedLRUSetCapacity(t *testing.T) {
	c := NewShardedLRU[int, int](256, nil)
	for i := 0; i < 100; i++ {
		c.Put(i, i)
	}
	if c.Len() != 100 || !c.Enabled() {
		t.Fatalf("Len = %d, Enabled = %v; want 100, true", c.Len(), c.Enabled())
	}
	c.SetCapacity(0)
	if c.Len() != 0 || c.Enabled() {
		t.Fatalf("after disable Len = %d, Enabled = %v; want 0, false", c.Len(), c.Enabled())
	}
	if ev := c.Stats().Evictions; ev != 100 {
		t.Fatalf("%d evictions on disable, want 100", ev)
	}
	c.Put(1, 1)
	if c.Len() != 0 || c.Stats().Evictions != 101 {
		t.Fatalf("disabled Put kept its value: Len = %d, %+v", c.Len(), c.Stats())
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("hit on disabled cache")
	}
	c.SetCapacity(64)
	c.Put(1, 1)
	if _, ok := c.Get(1); !ok {
		t.Fatal("re-enabled cache refused an entry")
	}
}

// TestShardedLRUConcurrent races Get, Put and SetCapacity (run it under
// -race): values never mix across keys, and the bound holds at the end.
func TestShardedLRUConcurrent(t *testing.T) {
	const capacity = 128
	c := NewShardedLRU[string, int](capacity, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", i%200)
				if v, ok := c.Get(k); ok && v != i%200 {
					t.Errorf("Get(%s) = %d", k, v)
				}
				c.Put(k, i%200)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			c.SetCapacity(capacity * (i % 2))
		}
	}()
	wg.Wait()
	c.SetCapacity(capacity)
	if c.Len() > capacity {
		t.Fatalf("Len = %d exceeds capacity", c.Len())
	}
}

func TestShardedLRUGetAllocFree(t *testing.T) {
	c := NewShardedLRU[uint64, *int](64, nil)
	v := 42
	for i := uint64(0); i < 8; i++ {
		c.Put(i, &v)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := uint64(0); i < 8; i++ {
			if _, ok := c.Get(i); !ok {
				t.Fatal("miss on resident key")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Get allocates %v per run of 8 hits; the hit path must be allocation-free", allocs)
	}
}

func TestNewShardedLRURefusesOnEvict(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a non-nil onEvict was accepted and would never be called")
		}
	}()
	NewShardedLRU[int, int](8, func(int) {})
}

// TestGetOrBuildCtxAtCapacityZero: builds into an LRU that holds nothing
// still answer, and each call builds again.
func TestGetOrBuildCtxAtCapacityZero(t *testing.T) {
	f, c := &Flight[int, int]{}, NewLRU[int, int](0)
	for i := 0; i < 2; i++ {
		if v, err := get(f, c, 1, func() (int, error) { return 7, nil }); err != nil || v != 7 {
			t.Fatalf("build %d: (%d, %v)", i, v, err)
		}
	}
	if c.Len() != 0 || f.Stats().Builds != 2 || c.Stats().Evictions != 2 {
		t.Fatalf("Len = %d, %+v, %+v; want nothing kept, 2 builds, 2 evictions", c.Len(), f.Stats(), c.Stats())
	}
}

// TestPutLeavesInFlightBuildAlone: a Put racing a build of its key changes
// neither what the build's waiters get nor what the build stores.
func TestPutLeavesInFlightBuildAlone(t *testing.T) {
	f, c := &Flight[int, int]{}, NewLRU[int, int](4)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan int)
	go func() {
		v, _ := get(f, c, 1, func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		done <- v
	}()
	<-started
	c.Put(1, 9)
	close(release)
	if v := <-done; v != 7 {
		t.Fatalf("waiter got %d, want its build's 7", v)
	}
	if v, ok := c.Get(1); !ok || v != 7 {
		t.Fatalf("Get(1) = %d, %v; want the built 7", v, ok)
	}
}

// BenchmarkGetParallel times the hit path under contention: every
// goroutine reads the same twelve resident keys through the one lock.
func BenchmarkGetParallel(b *testing.B) {
	const keys = 12
	c := NewLRU[int, int](1024)
	for k := 0; k < keys; k++ {
		c.Put(k, k)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for i := 0; pb.Next(); i++ {
			if _, ok := c.Get(i % keys); !ok {
				b.Error("miss on resident key")
				return
			}
		}
	})
}
