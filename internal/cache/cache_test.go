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

// get is GetOrBuildCtx under a context that never cancels, with a build that
// ignores its own.
func get[K comparable, V any](c *Cache[K, V], key K, build func() (V, error)) (V, error) {
	return c.GetOrBuildCtx(context.Background(), key, func(context.Context) (V, error) { return build() })
}

// ready reports whether key holds a completed, successful build.
func ready[K comparable, V any](c *Cache[K, V], key K) bool {
	_, ok := c.PeekReady(key)
	return ok
}

// resident counts the entries whose build has completed.
func resident[K comparable, V any](c *Cache[K, V]) int {
	n := 0
	c.EachReady(func(K, V) { n++ })
	return n
}

func TestGetOrBuildCachesValue(t *testing.T) {
	c := New[int, string](4)
	builds := 0
	build := func() (string, error) { builds++; return "v", nil }
	for i := 0; i < 3; i++ {
		v, err := get(c, 7, build)
		if err != nil || v != "v" {
			t.Fatalf("get %d: %q, %v", i, v, err)
		}
	}
	if builds != 1 {
		t.Errorf("built %d times", builds)
	}
	st := c.Stats()
	if st.Builds != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New[int, int](2)
	mk := func(k int) func() (int, error) {
		return func() (int, error) { return k * 10, nil }
	}
	get(c, 1, mk(1))
	get(c, 2, mk(2))
	get(c, 1, mk(1)) // bump 1; 2 is now LRU
	get(c, 3, mk(3)) // evicts 2
	if ready(c, 2) {
		t.Error("2 not evicted")
	}
	if !ready(c, 1) || !ready(c, 3) {
		t.Error("wrong survivors")
	}
	if resident(c) != 2 {
		t.Errorf("len %d", resident(c))
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Errorf("evictions %d", ev)
	}
}

func TestFailedBuildNotCached(t *testing.T) {
	c := New[int, int](2)
	boom := errors.New("boom")
	if _, err := get(c, 1, func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	if ready(c, 1) {
		t.Error("failed build cached")
	}
	v, err := get(c, 1, func() (int, error) { return 5, nil })
	if err != nil || v != 5 {
		t.Fatalf("retry: %d, %v", v, err)
	}
}

func TestFailedBuildDoesNotEvictResidents(t *testing.T) {
	c := New[int, int](1)
	get(c, 1, func() (int, error) { return 1, nil })
	if _, err := get(c, 2, func() (int, error) { return 0, errors.New("boom") }); err == nil {
		t.Fatal("build error lost")
	}
	if !ready(c, 1) {
		t.Error("failed build for key 2 evicted the resident key 1")
	}
	// A successful build still evicts the LRU resident.
	get(c, 3, func() (int, error) { return 3, nil })
	if ready(c, 1) || !ready(c, 3) || resident(c) != 1 {
		t.Error("successful build did not take over the capacity-1 cache")
	}
}

func TestPanickingBuildDoesNotWedgeKey(t *testing.T) {
	c := New[int, int](2)
	waiting := make(chan struct{})
	gotErr := make(chan error, 1)
	go func() {
		// Coalesce onto the panicking build: this call must be released
		// with an error, not block forever.
		<-waiting
		_, err := get(c, 1, func() (int, error) { return 9, nil })
		gotErr <- err
	}()
	if _, err := get(c, 1, func() (int, error) {
		close(waiting)
		// Give the waiter a moment to coalesce before panicking.
		for i := 0; i < 1000; i++ {
			runtime.Gosched()
		}
		panic("builder bug")
	}); err == nil {
		t.Error("the caller that started the panicking build got a nil error")
	}
	if err := <-gotErr; err == nil {
		// The waiter may also have raced in after the cleanup and rebuilt
		// successfully — both outcomes are fine; a hang is the bug.
		t.Log("waiter retried after cleanup and succeeded")
	}
	// The key is not wedged: a fresh build succeeds.
	v, err := get(c, 1, func() (int, error) { return 42, nil })
	if err != nil || v != 42 {
		t.Fatalf("key wedged after panic: %d, %v", v, err)
	}
}

func TestConcurrentMissesCoalesce(t *testing.T) {
	c := New[int, int](8)
	var builds atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := 0; k < 4; k++ {
				v, err := get(c, k, func() (int, error) {
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
	c := New[int, int](2)
	inBuild := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		get(c, 1, func() (int, error) {
			close(inBuild)
			<-release
			return 1, nil
		})
		close(done)
	}()
	<-inBuild // the build is provably in flight
	waited := make(chan struct{})
	go func() {
		get(c, 1, func() (int, error) { return 0, errors.New("must coalesce") })
		close(waited)
	}()
	// The waiter registers as a hit (coalesced) before blocking on ready;
	// poll until it has.
	for c.Stats().Coalesced == 0 {
		runtime.Gosched()
	}
	close(release)
	<-done
	<-waited
	st := c.Stats()
	if st.Coalesced != 1 || st.Builds != 1 {
		t.Errorf("stats %+v: want 1 coalesced wait on 1 build", st)
	}
}

func TestBuildConcurrencyGatedByCapacity(t *testing.T) {
	c := New[int, int](2)
	var concurrent, peak atomic.Int32
	var wg sync.WaitGroup
	release := make(chan struct{})
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			get(c, k, func() (int, error) {
				n := concurrent.Add(1)
				for {
					p := peak.Load()
					if n <= p || peak.CompareAndSwap(p, n) {
						break
					}
				}
				<-release
				concurrent.Add(-1)
				return k, nil
			})
		}(k)
	}
	// Let builders reach the gate, then run them to completion in waves.
	for i := 0; i < 8; i++ {
		release <- struct{}{}
	}
	wg.Wait()
	if p := peak.Load(); p > 2 {
		t.Errorf("%d builds ran concurrently despite capacity 2", p)
	}
}

func TestPeekDoesNotBumpRecency(t *testing.T) {
	c := New[int, int](2)
	get(c, 1, func() (int, error) { return 1, nil })
	get(c, 2, func() (int, error) { return 2, nil })
	if v, ok := c.PeekReady(1); !ok || v != 1 {
		t.Fatalf("peek: %d, %v", v, ok)
	}
	get(c, 3, func() (int, error) { return 3, nil }) // evicts 1 (peek did not bump)
	if ready(c, 1) {
		t.Error("peek bumped recency")
	}
}

func TestConcurrentMixedKeysUnderCapacityPressure(t *testing.T) {
	c := New[string, int](3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("k%d", (g+i)%6)
				if _, err := get(c, k, func() (int, error) { return len(k), nil }); err != nil {
					t.Errorf("get %s: %v", k, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if resident(c) > 3 {
		t.Errorf("len %d exceeds capacity", resident(c))
	}
}

func TestGetOrBuildCtxHitAndMiss(t *testing.T) {
	c := New[string, int](2)
	v, err := c.GetOrBuildCtx(context.Background(), "a", func(context.Context) (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("miss: got (%d, %v)", v, err)
	}
	v, err = c.GetOrBuildCtx(context.Background(), "a", func(context.Context) (int, error) {
		t.Error("hit ran a build")
		return 0, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("hit: got (%d, %v)", v, err)
	}
	if st := c.Stats(); st.Builds != 1 || st.Hits != 1 {
		t.Errorf("stats %+v, want 1 build / 1 hit", st)
	}
}

// TestGetOrBuildCtxCanceledWaiterDetaches pins the work-conserving half of
// the contract: a caller that cancels while another caller still waits gets
// ctx.Err() immediately, the build keeps running for the survivor, and the
// artifact is cached.
func TestGetOrBuildCtxCanceledWaiterDetaches(t *testing.T) {
	c := New[string, int](2)
	enter := make(chan struct{})
	release := make(chan struct{})
	var built atomic.Int32
	build := func(context.Context) (int, error) {
		close(enter)
		<-release
		built.Add(1)
		return 42, nil
	}

	survivor := make(chan error, 1)
	go func() {
		_, err := c.GetOrBuildCtx(context.Background(), "k", build)
		survivor <- err
	}()
	<-enter // the build is in flight

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.GetOrBuildCtx(ctx, "k", build); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter got %v, want context.Canceled", err)
	}

	close(release)
	if err := <-survivor; err != nil {
		t.Fatalf("surviving waiter got %v", err)
	}
	if v, ok := c.PeekReady("k"); !ok || v != 42 {
		t.Errorf("artifact not cached after a co-waiter canceled: (%d, %v)", v, ok)
	}
	if built.Load() != 1 {
		t.Errorf("build ran %d times", built.Load())
	}
}

// TestGetOrBuildCtxLastWaiterCancelsBuild pins the CPU-conserving half: when
// the last interested caller cancels, the build's own context is canceled, a
// ctx-aware build aborts, the failed entry is dropped, and a later call
// retries from scratch.
func TestGetOrBuildCtxLastWaiterCancelsBuild(t *testing.T) {
	c := New[string, int](2)
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
		_, err := c.GetOrBuildCtx(ctx, "k", build)
		errc <- err
	}()
	<-enter
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller got %v, want context.Canceled", err)
	}
	<-aborted // the build's context really was canceled

	// The aborted build must not be cached; a retry builds fresh.
	v, err := c.GetOrBuildCtx(context.Background(), "k", func(context.Context) (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("retry after aborted build: (%d, %v)", v, err)
	}
}

// TestGetOrBuildCtxCancelSparesRemainingWaiter: a caller whose context never
// cancels stays interested, so a second caller canceling must not cancel the
// build out from under it.
func TestGetOrBuildCtxCancelSparesRemainingWaiter(t *testing.T) {
	c := New[string, int](2)
	enter := make(chan struct{})
	release := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := get(c, "k", func() (int, error) {
			close(enter)
			<-release
			return 5, nil
		})
		errc <- err
	}()
	<-enter

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.GetOrBuildCtx(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("ctx waiter got %v", err)
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("the caller that stayed got %v", err)
	}
	if v, ok := c.PeekReady("k"); !ok || v != 5 {
		t.Errorf("artifact lost: (%d, %v)", v, ok)
	}
}

// TestAbandonedBuildIsReplacedNotJoined: a lookup landing on a build whose
// last waiter canceled must start a fresh build rather than coalesce onto
// work doomed to fail with someone else's cancellation.
func TestAbandonedBuildIsReplacedNotJoined(t *testing.T) {
	c := New[string, int](2)
	enter := make(chan struct{})
	stuck := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.GetOrBuildCtx(ctx, "k", func(context.Context) (int, error) {
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
	// The new caller gets its own build immediately, not the doomed one.
	v, err := c.GetOrBuildCtx(context.Background(), "k", func(context.Context) (int, error) { return 2, nil })
	if err != nil || v != 2 {
		t.Fatalf("replacement build: (%d, %v), want (2, nil)", v, err)
	}
	close(stuck)
	if v, ok := c.PeekReady("k"); !ok || v != 2 {
		t.Errorf("cache serves (%d, %v), want the replacement's 2", v, ok)
	}
}

// TestGetOrBuildCtxPanickingBuildContained: on the detached builder
// goroutine a panic must fail the waiters and be swallowed — crashing the
// process would turn one bad build into a full outage.
func TestGetOrBuildCtxPanickingBuildContained(t *testing.T) {
	c := New[string, int](2)
	if _, err := c.GetOrBuildCtx(context.Background(), "k", func(context.Context) (int, error) {
		panic("builder bug")
	}); err == nil {
		t.Fatal("panicking build returned a nil error")
	}
	// The key is not wedged and the process is alive: a fresh build works.
	v, err := c.GetOrBuildCtx(context.Background(), "k", func(context.Context) (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("key wedged after contained panic: (%d, %v)", v, err)
	}
}

// TestEachReady: the walk visits exactly the entries whose builds completed
// successfully, outside the lock — fn may use the cache — and leaves stats
// and recency alone.
func TestEachReady(t *testing.T) {
	c := New[int, string](4)
	for k, v := range map[int]string{1: "a", 2: "b"} {
		if _, err := get(c, k, func() (string, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() { // an in-flight build: must not be visited
		defer close(done)
		get(c, 3, func() (string, error) { //nolint:errcheck // result irrelevant
			close(started)
			<-release
			return "c", nil
		})
	}()
	<-started
	before := c.Stats()
	seen := map[int]string{}
	c.EachReady(func(k int, v string) {
		seen[k] = v
		c.PeekReady(k) // re-entering the cache must not deadlock
	})
	if len(seen) != 2 || seen[1] != "a" || seen[2] != "b" {
		t.Fatalf("EachReady visited %v, want the two completed entries", seen)
	}
	if after := c.Stats(); after != before {
		t.Fatalf("EachReady moved the counters: %+v -> %+v", before, after)
	}
	close(release)
	<-done
}
