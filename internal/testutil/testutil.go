// Package testutil is the differential test harness for the aggregation
// strategies: it classifies a point workload by the paper's distance-bound
// guarantee and checks any strategy's result against it, and it compares two
// results bit-for-bit (the mutable-vs-rebuild acceptance criterion).
//
// The guarantee under test (§2): a strategy run at bound ε may mis-assign
// only points within ε of a region's boundary. Classify therefore splits the
// points per region into Must (inside and deeper than ε — every
// bound-respecting strategy counts them), Forbidden (outside and farther
// than ε — never counted), and Free (within ε of the boundary — either way).
// Check asserts that a result is achievable under some Free subset; any
// violation is a real guarantee break, not an approximation artifact.
//
// Float policy: reassociation must never mask a real divergence, so
// harness-driven workloads use ExactWeights — dyadic rationals whose partial
// sums are all exactly representable. Under them every summation order
// produces identical bits, which is what lets CheckIdentical require
// bit-for-bit equality of SUM/AVG across physically different execution
// orders (base span folds around tombstones plus delta vs a fresh rebuild).
package testutil

import (
	"math"
	"math/rand"
	"testing"

	"distbound/internal/geom"
	"distbound/internal/join"
)

// Classification holds the per-region Must/Free split of a workload at one
// distance bound. Forbidden points appear only implicitly: they are the
// points in neither class.
type Classification struct {
	Bound float64

	// MustCount/MustSum/MustMin/MustMax aggregate the points every
	// bound-respecting strategy must assign to the region.
	MustCount []int64
	MustSum   []float64
	MustMin   []float64
	MustMax   []float64

	// FreeCount and the achievable Free contributions bound what a strategy
	// may add: any subset of the Free points is legal, so sums move within
	// [FreeNegSum, FreePosSum] and extremes within [FreeMin, FreeMax].
	FreeCount  []int64
	FreePosSum []float64
	FreeNegSum []float64
	FreeMin    []float64
	FreeMax    []float64
}

// Classify splits pts per region at the bound. A nil weight column
// classifies with weight 1 per point (COUNT-only workloads).
func Classify(pts []geom.Point, weights []float64, regions []geom.Region, bound float64) *Classification {
	return NewClassifier(pts, weights, regions).At(bound)
}

// Classifier holds each point's containment and boundary distance per region,
// so a workload asked at many bounds measures its geometry once.
type Classifier struct {
	weights []float64
	pts, n  int       // points, regions
	inside  []bool    // point-major: [i*n + ri]
	dist    []float64 // BoundaryDist, point-major
}

// NewClassifier measures every point against every region. A nil weight
// column classifies with weight 1 per point.
func NewClassifier(pts []geom.Point, weights []float64, regions []geom.Region) *Classifier {
	n := len(regions)
	c := &Classifier{weights: weights, pts: len(pts), n: n, inside: make([]bool, len(pts)*n), dist: make([]float64, len(pts)*n)}
	for i, p := range pts {
		for ri, rg := range regions {
			c.inside[i*n+ri] = rg.ContainsPoint(p)
			c.dist[i*n+ri] = rg.BoundaryDist(p)
		}
	}
	return c
}

// At classifies the measured points at the bound.
func (cl *Classifier) At(bound float64) *Classification {
	n := cl.n
	c := &Classification{
		Bound:     bound,
		MustCount: make([]int64, n), MustSum: make([]float64, n),
		MustMin: make([]float64, n), MustMax: make([]float64, n),
		FreeCount: make([]int64, n), FreePosSum: make([]float64, n),
		FreeNegSum: make([]float64, n), FreeMin: make([]float64, n),
		FreeMax: make([]float64, n),
	}
	for ri := 0; ri < n; ri++ {
		c.MustMin[ri], c.FreeMin[ri] = math.Inf(1), math.Inf(1)
		c.MustMax[ri], c.FreeMax[ri] = math.Inf(-1), math.Inf(-1)
	}
	for i := 0; i < cl.pts; i++ {
		w := 1.0
		if cl.weights != nil {
			w = cl.weights[i]
		}
		for ri := 0; ri < n; ri++ {
			inside := cl.inside[i*n+ri]
			near := cl.dist[i*n+ri] <= bound
			switch {
			case inside && !near:
				c.MustCount[ri]++
				c.MustSum[ri] += w
				c.MustMin[ri] = math.Min(c.MustMin[ri], w)
				c.MustMax[ri] = math.Max(c.MustMax[ri], w)
			case near:
				c.FreeCount[ri]++
				if w > 0 {
					c.FreePosSum[ri] += w
				} else {
					c.FreeNegSum[ri] += w
				}
				c.FreeMin[ri] = math.Min(c.FreeMin[ri], w)
				c.FreeMax[ri] = math.Max(c.FreeMax[ri], w)
			}
		}
	}
	return c
}

// Check asserts that got is achievable under the classification: counts,
// sums and extremes must all correspond to "every Must point plus some
// subset of the Free points". label names the strategy/configuration in
// failure messages.
func (c *Classification) Check(t testing.TB, label string, agg join.Agg, got join.Result) {
	t.Helper()
	for ri := range c.MustCount {
		must, free := c.MustCount[ri], c.FreeCount[ri]
		if got.Counts[ri] < must || got.Counts[ri] > must+free {
			t.Fatalf("%s region %d: count %d outside [%d, %d] (must, must+free)",
				label, ri, got.Counts[ri], must, must+free)
		}
		switch agg {
		case join.Sum, join.Avg:
			lo := c.MustSum[ri] + c.FreeNegSum[ri]
			hi := c.MustSum[ri] + c.FreePosSum[ri]
			tol := 1e-9 * math.Max(1, math.Max(math.Abs(lo), math.Abs(hi)))
			if got.Sums[ri] < lo-tol || got.Sums[ri] > hi+tol {
				t.Fatalf("%s region %d: sum %g outside achievable [%g, %g]",
					label, ri, got.Sums[ri], lo, hi)
			}
		case join.Min:
			if got.Counts[ri] > 0 {
				if lo := math.Min(c.MustMin[ri], c.FreeMin[ri]); got.Extremes[ri] < lo {
					t.Fatalf("%s region %d: MIN %g below any live weight %g", label, ri, got.Extremes[ri], lo)
				}
				if must > 0 && got.Extremes[ri] > c.MustMin[ri] {
					t.Fatalf("%s region %d: MIN %g misses mandatory minimum %g", label, ri, got.Extremes[ri], c.MustMin[ri])
				}
			}
		case join.Max:
			if got.Counts[ri] > 0 {
				if hi := math.Max(c.MustMax[ri], c.FreeMax[ri]); got.Extremes[ri] > hi {
					t.Fatalf("%s region %d: MAX %g above any live weight %g", label, ri, got.Extremes[ri], hi)
				}
				if must > 0 && got.Extremes[ri] < c.MustMax[ri] {
					t.Fatalf("%s region %d: MAX %g misses mandatory maximum %g", label, ri, got.Extremes[ri], c.MustMax[ri])
				}
			}
		}
	}
}

// CheckIdentical asserts got equals want bit-for-bit: counts, sums and
// extremes. Use with ExactWeights-driven workloads, where reassociation
// cannot produce legitimate differences.
func CheckIdentical(t testing.TB, label string, want, got join.Result) {
	t.Helper()
	if len(got.Counts) != len(want.Counts) {
		t.Fatalf("%s: %d regions != %d", label, len(got.Counts), len(want.Counts))
	}
	for ri := range want.Counts {
		if got.Counts[ri] != want.Counts[ri] {
			t.Fatalf("%s region %d: count %d != %d", label, ri, got.Counts[ri], want.Counts[ri])
		}
		if want.Sums != nil && got.Sums[ri] != want.Sums[ri] {
			t.Fatalf("%s region %d: sum %v != %v", label, ri, got.Sums[ri], want.Sums[ri])
		}
		if want.Extremes != nil && want.Counts[ri] > 0 && got.Extremes[ri] != want.Extremes[ri] {
			t.Fatalf("%s region %d: extreme %v != %v", label, ri, got.Extremes[ri], want.Extremes[ri])
		}
	}
}

// ExactWeights returns n weights drawn from the dyadic grid k/8 with
// |k| ≤ 128. Every partial sum of millions of such weights is an exact
// float64, so all summation orders agree bitwise — divergence between
// strategies can then only come from selecting different points, never from
// float reassociation.
func ExactWeights(rng *rand.Rand, n int) []float64 {
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = float64(rng.Intn(257)-128) / 8
	}
	return ws
}
