package cache

import (
	"context"
	"errors"
	"sync"
	"time"
)

// errBuildPanicked is what every waiter on a build receives when that build
// panics; the panic itself is contained on the builder goroutine.
var errBuildPanicked = errors.New("cache: build panicked")

// Flight runs at most one build per key at a time and shares its outcome
// with every caller that asks meanwhile. It keeps no finished value: a build
// stores what it made where its callers read it, before it returns, and Do's
// lookup finds it there. The zero value is ready to use.
type Flight[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V] // the builds in flight
	stats Stats
}

// call is one build in flight. done is closed once val/err are final;
// waiters block on it without holding the Flight's lock, so a slow build
// never stalls calls for other keys. waiters counts the callers still
// interested; when the last of them leaves, cancel cancels the build's own
// context so abandoned work stops burning CPU.
type call[V any] struct {
	val     V
	err     error
	done    chan struct{}
	waiters int
	cancel  context.CancelFunc
}

// Do returns lookup's value for key if it has one, else the outcome of the
// key's build: the one in flight, or a new one running build. lookup runs
// under the Flight's lock when no build of key is in flight, so a value a
// build stored just before it finished is found and not built twice. A
// failed build stores nothing and is not kept: every waiter receives its
// error and the next call builds again.
//
// The wait aborts with ctx.Err() when ctx is canceled, without disturbing
// the build or its other waiters: builds run on their own goroutine, under a
// context of their own that is canceled only when the last interested
// caller has gone. A build every caller abandoned leaves the Flight at once,
// so the next call starts a fresh build rather than inherit someone else's
// cancellation; the abandoned one stops burning CPU if it watches its
// context. A panicking build fails every waiter with an error and is
// contained on its goroutine — it never crashes the process.
func (f *Flight[K, V]) Do(ctx context.Context, key K, lookup func() (V, bool), build func(context.Context) (V, error)) (V, error) {
	f.mu.Lock()
	c, ok := f.calls[key]
	if ok {
		f.stats.Hits++
		f.stats.Coalesced++
		c.waiters++
	} else if v, found := lookup(); found {
		f.stats.Hits++
		f.mu.Unlock()
		return v, nil
	} else {
		c = f.start(key, build)
	}
	f.mu.Unlock()

	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
	}
	// Lost interest. If the result landed in the same instant, serve it;
	// otherwise withdraw, and as the last waiter out, cancel the build and
	// take it out of the Flight.
	f.mu.Lock()
	defer f.mu.Unlock()
	select {
	case <-c.done:
		return c.val, c.err
	default:
	}
	if c.waiters--; c.waiters == 0 {
		c.cancel()
		delete(f.calls, key)
	}
	var zero V
	return zero, ctx.Err()
}

// start records a build of key, with the caller as its first waiter, and
// runs it on its own goroutine. Called with mu held.
//
//distbound:allow-background the build context is shared by all waiters and must outlive any one caller; cancellation is refcounted separately
func (f *Flight[K, V]) start(key K, build func(context.Context) (V, error)) *call[V] {
	bctx, cancel := context.WithCancel(context.Background())
	c := &call[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
	if f.calls == nil {
		f.calls = map[K]*call[V]{}
	}
	f.calls[key] = c
	f.stats.Builds++
	go f.run(bctx, key, c, build)
	return c
}

// run executes one build and completes its call: it leaves the Flight, and
// c.done is closed, releasing every waiter. A panic in build is recovered
// here — on this unsupervised goroutine a re-raised panic would kill the
// whole process, not one request — and fails the waiters with
// errBuildPanicked; otherwise the never-closed done would wedge every later
// call for the key.
func (f *Flight[K, V]) run(ctx context.Context, key K, c *call[V], build func(context.Context) (V, error)) {
	t0 := time.Now()
	c.err = errBuildPanicked // what the waiters get unless build returns
	defer func() {
		_ = recover()
		c.cancel()
		f.mu.Lock()
		defer f.mu.Unlock()
		f.stats.BuildTime += time.Since(t0)
		// Only remove our own call: if every waiter left, a fresh build may
		// already hold the key.
		if f.calls[key] == c {
			delete(f.calls, key)
		}
		// Close under mu: the cancel path's re-check also runs under mu, so
		// a completed build is never mistaken for one in flight.
		close(c.done)
	}()
	c.val, c.err = build(ctx)
}

// Stats returns a snapshot of the event counters.
func (f *Flight[K, V]) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}
