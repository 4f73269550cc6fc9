package pool

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestRunCoversAllJobs(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		seen := make([]atomic.Int32, 100)
		if err := Run(100, workers, func(w, i int) error {
			seen[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, seen[i].Load())
			}
		}
	}
}

func TestRunWorkerLocalIndexing(t *testing.T) {
	const workers = 4
	locals := make([]int, workers)
	if err := Run(200, workers, func(w, i int) error {
		locals[w]++ // safe iff worker ids are really disjoint per goroutine
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range locals {
		total += n
	}
	if total != 200 {
		t.Errorf("worker-local counts sum to %d", total)
	}
}

func TestRunFirstErrorStopsRemainingWork(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := Run(1000, 4, func(w, i int) error {
		ran.Add(1)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err %v", err)
	}
	// All feeder sends must have been drained (no deadlock — reaching here
	// proves it) and most jobs skipped after the first failure.
	if ran.Load() == 1000 {
		t.Error("no jobs were skipped after the error")
	}
}

func TestRunSequentialStopsAtError(t *testing.T) {
	boom := errors.New("boom")
	ran := 0
	err := Run(10, 1, func(w, i int) error {
		ran++
		if i == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || ran != 4 {
		t.Errorf("ran %d, err %v", ran, err)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(5, 3) != 3 || Workers(2, 100) != 2 || Workers(0, 0) != 1 {
		t.Error("clamping wrong")
	}
	if Workers(-1, 1000) < 1 {
		t.Error("GOMAXPROCS default broken")
	}
}

func TestRunCtxCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := RunCtx(ctx, 100, workers, func(_, _ int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d jobs ran under a pre-canceled context", workers, ran.Load())
		}
	}
}

func TestRunCtxCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := RunCtx(ctx, 1000, 4, func(_, job int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The feeder stops on cancel; only jobs already dispatched may finish.
	if n := ran.Load(); n >= 1000 {
		t.Errorf("all %d jobs ran despite mid-run cancellation", n)
	}
}

func TestRunCtxFnErrorWinsOverCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err := RunCtx(ctx, 100, 4, func(_, job int) error {
		if job == 0 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the fn error to win", err)
	}
}

func TestRunCtxNoCancelBehavesLikeRun(t *testing.T) {
	var ran atomic.Int32
	if err := RunCtx(context.Background(), 50, 3, func(_, _ int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 50 {
		t.Errorf("ran %d of 50 jobs", ran.Load())
	}
}

// TestSplit pins the even split: the shards partition [0, n) contiguously,
// with no empty shard, k clamped to [1, n], and shard s starting at n·s/k.
func TestSplit(t *testing.T) {
	cases := []struct {
		n, k int
		want int
	}{
		{10, 3, 3}, {10, 20, 10}, {0, 4, 0}, {7, 1, 1}, {5, 0, 1}, {5, -2, 1},
	}
	for _, c := range cases {
		got := Split(c.n, c.k)
		if len(got) != c.want {
			t.Errorf("Split(%d,%d) = %d shards, want %d", c.n, c.k, len(got), c.want)
			continue
		}
		prev := 0
		for s, sh := range got {
			if sh[0] != prev || sh[1] <= sh[0] {
				t.Errorf("Split(%d,%d): shards not a contiguous cover: %v", c.n, c.k, got)
				break
			}
			if k := len(got); sh[0] != c.n*s/k {
				t.Errorf("Split(%d,%d): shard %d starts at %d, want %d", c.n, c.k, s, sh[0], c.n*s/k)
			}
			prev = sh[1]
		}
		if prev != c.n {
			t.Errorf("Split(%d,%d): covers %d items", c.n, c.k, prev)
		}
	}
}

// TestSplitWeighted pins the cost-weighted shard assignment: contiguous
// cover of all jobs, at most k shards, and — the reason it exists — an
// outsized job isolated in its own narrow shard instead of dragging an
// equal count of siblings behind it.
func TestSplitWeighted(t *testing.T) {
	check := func(label string, n, k int, got [][2]int) {
		t.Helper()
		if len(got) > k {
			t.Fatalf("%s: %d shards for k=%d", label, len(got), k)
		}
		next := 0
		for _, sh := range got {
			if sh[0] != next || sh[1] <= sh[0] {
				t.Fatalf("%s: shards not a contiguous cover: %v", label, got)
			}
			next = sh[1]
		}
		if n > 0 && next != n {
			t.Fatalf("%s: shards end at %d, want %d: %v", label, next, n, got)
		}
		if n == 0 && len(got) != 0 {
			t.Fatalf("%s: non-empty shards for zero jobs", label)
		}
	}
	unit := func(int) int64 { return 1 }

	check("empty", 0, 4, SplitWeighted(0, 4, unit))
	check("k>n", 3, 8, SplitWeighted(3, 8, unit))
	check("k=1", 5, 1, SplitWeighted(5, 1, unit))

	// Uniform weights degenerate to the even count split.
	got := SplitWeighted(8, 4, unit)
	check("uniform", 8, 4, got)
	for _, sh := range got {
		if sh[1]-sh[0] != 2 {
			t.Fatalf("uniform split uneven: %v", got)
		}
	}

	// All-zero weights must not divide by zero and still cover every job.
	check("zero-weights", 6, 3, SplitWeighted(6, 3, func(int) int64 { return 0 }))

	// One giant job among many small ones: the giant gets a shard of its
	// own, wherever it sits.
	for _, giantAt := range []int{0, 7, 15} {
		w := func(i int) int64 {
			if i == giantAt {
				return 1000
			}
			return 1
		}
		got := SplitWeighted(16, 4, w)
		check("giant", 16, 4, got)
		for _, sh := range got {
			if giantAt >= sh[0] && giantAt < sh[1] && sh[1]-sh[0] != 1 {
				t.Errorf("giant at %d shares shard %v with light jobs: %v", giantAt, sh, got)
			}
		}
	}
}
