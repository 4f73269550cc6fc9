// Package pool provides the one worker-pool primitive shared by the
// parallel joins and the batched engine: run n independent jobs across k
// workers, with worker-local state addressed by worker index and
// first-error-wins semantics. Centralizing it also fixes a subtle hazard of
// hand-rolled pools over unbuffered channels: a worker that stops
// receiving on error would deadlock the feeder, so here workers keep
// draining the channel after a failure without executing further jobs.
package pool

import (
	"context"
	"runtime"
	"sync"
)

// Workers clamps a requested worker count (≤ 0 selects GOMAXPROCS) to the
// job count, minimum 1.
func Workers(requested, jobs int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Split partitions n jobs into at most k contiguous, near-equal shards,
// returned as [lo, hi) bounds and never empty: shard s is [n·s/k, n·(s+1)/k)
// with k clamped to [1, n]. The bounds depend only on n and k, so a fold
// merging per-shard partials in shard order associates the same way on every
// run at the same k.
func Split(n, k int) [][2]int {
	k = max(min(k, n), 1)
	out := make([][2]int, 0, k)
	for s := 0; s < k; s++ {
		if lo, hi := n*s/k, n*(s+1)/k; lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// SplitWeighted partitions n jobs (job i carrying weight(i) ≥ 0) into at
// most k contiguous shards of roughly equal total weight, returned as
// [lo, hi) bounds. Unlike an even count split, a
// weighted split keeps one outsized job — a region with a huge cover, a
// range spanning half the column — from serializing a whole worker behind
// a tail of average ones: the heavy job gets a narrow shard and the light
// jobs pack together. Jobs are never reordered or split, so a shard's work
// is a contiguous, deterministic slice of the input regardless of k.
func SplitWeighted(n, k int, weight func(i int) int64) [][2]int {
	if n <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	if k <= 1 {
		return [][2]int{{0, n}}
	}
	var total int64
	for i := 0; i < n; i++ {
		total += weight(i)
	}
	if total <= 0 {
		return Split(n, k) // weightless jobs degenerate to the even count split
	}
	out := make([][2]int, 0, k)
	// Midpoint rule: a job whose weight midpoint falls in the s-th of k equal
	// weight intervals belongs to shard s. Midpoints are non-decreasing in i,
	// so shards come out contiguous; an outsized job lands alone in its shard
	// because its midpoint consumes the whole interval.
	lo, cum, cur := 0, int64(0), 0
	for i := 0; i < n; i++ {
		w := weight(i)
		s := int((2*cum + w) * int64(k) / (2 * total))
		if s >= k {
			s = k - 1
		}
		if s != cur {
			if lo < i {
				out = append(out, [2]int{lo, i})
				lo = i
			}
			cur = s
		}
		cum += w
	}
	return append(out, [2]int{lo, n})
}

// Run invokes fn(worker, job) for every job index in [0, n) across the
// given number of workers. fn's worker argument lies in [0, workers):
// callers index worker-local accumulators with it and merge after Run
// returns. After the first error, remaining jobs are skipped and Run
// reports that error. workers ≤ 1 runs inline in job order, stopping at
// the first error.
//
//distbound:allow-background context-free convenience over RunCtx; callers hold no context to thread
func Run(n, workers int, fn func(worker, job int) error) error {
	return RunCtx(context.Background(), n, workers, fn)
}

// RunCtx is Run under a context: once ctx is canceled no further job starts,
// in-flight jobs finish (long jobs that want mid-job cancellation watch ctx
// themselves), and RunCtx returns ctx.Err(). An error fn returned before the
// cancellation wins over it, preserving Run's first-error-wins contract.
// RunCtx never returns before every started job has finished, so callers'
// worker-local state is safe to read — and no worker goroutine outlives the
// call.
func RunCtx(ctx context.Context, n, workers int, fn func(worker, job int) error) error {
	done := ctx.Done()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if done != nil {
				select {
				case <-done:
					return ctx.Err()
				default:
				}
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
	}
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				mu.Lock()
				stop := first != nil
				mu.Unlock()
				if stop {
					continue
				}
				if err := fn(w, i); err != nil {
					fail(err)
				}
			}
		}(w)
	}
feed:
	for i := 0; i < n; i++ {
		if done == nil {
			next <- i
			continue
		}
		// Check done non-blockingly first: with a worker parked on <-next
		// AND done already closed, the two-way select below picks uniformly
		// at random and could dispatch a job under a dead context.
		select {
		case <-done:
			break feed
		default:
		}
		select {
		case next <- i:
		case <-done:
			break feed
		}
	}
	close(next)
	wg.Wait()
	if first != nil {
		return first
	}
	if done != nil {
		select {
		case <-done:
			return ctx.Err()
		default:
		}
	}
	return nil
}
