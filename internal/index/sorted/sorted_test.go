package sorted

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestLowerUpperBound(t *testing.T) {
	c := New([]uint64{5, 1, 3, 3, 9})
	// sorted: 1 3 3 5 9
	cases := []struct {
		k      uint64
		lb, ub int
	}{
		{0, 0, 0}, {1, 0, 1}, {2, 1, 1}, {3, 1, 3}, {5, 3, 4}, {9, 4, 5}, {10, 5, 5},
	}
	for _, cse := range cases {
		if got := c.LowerBound(cse.k); got != cse.lb {
			t.Errorf("LowerBound(%d) = %d, want %d", cse.k, got, cse.lb)
		}
		if got := c.UpperBound(cse.k); got != cse.ub {
			t.Errorf("UpperBound(%d) = %d, want %d", cse.k, got, cse.ub)
		}
	}
}

func TestCountRange(t *testing.T) {
	c := New([]uint64{1, 3, 3, 5, 9})
	cases := []struct {
		lo, hi uint64
		want   int
	}{
		{0, 100, 5}, {3, 3, 2}, {2, 4, 2}, {6, 8, 0}, {9, 9, 1}, {5, 1, 0},
	}
	for _, cse := range cases {
		if got := c.CountRange(cse.lo, cse.hi); got != cse.want {
			t.Errorf("CountRange(%d,%d) = %d, want %d", cse.lo, cse.hi, got, cse.want)
		}
	}
}

func TestNewFromSorted(t *testing.T) {
	c := NewFromSorted([]uint64{1, 2, 3})
	if c.LowerBound(2) != 1 {
		t.Error("NewFromSorted on sorted input broken")
	}
	// Unsorted input gets sorted defensively.
	c2 := NewFromSorted([]uint64{3, 1, 2})
	if c2.Keys()[0] != 1 || c2.Keys()[2] != 3 {
		t.Errorf("defensive sort failed: %v", c2.Keys())
	}
}

func TestCountRangeMatchesBruteForce(t *testing.T) {
	f := func(keys []uint64, lo, hi uint64) bool {
		if lo > hi {
			lo, hi = hi, lo
		}
		c := New(keys)
		want := 0
		for _, k := range keys {
			if k >= lo && k <= hi {
				want++
			}
		}
		return c.CountRange(lo, hi) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLargeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 10000)
	for i := range keys {
		keys[i] = rng.Uint64() % 1000 // force duplicates
	}
	c := New(keys)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for trial := 0; trial < 200; trial++ {
		k := rng.Uint64() % 1100
		want := sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
		if got := c.LowerBound(k); got != want {
			t.Fatalf("LowerBound(%d) = %d, want %d", k, got, want)
		}
	}
}
