package main

import (
	"math"
	"slices"
)

// quantile returns the nearest-rank q-quantile of xs, which must be sorted
// ascending and non-empty: the smallest value with at least q of the sample
// at or below it.
func quantile(sorted []float64, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median is the midpoint median, matching Python's statistics.median — the
// driver's own reduction, so -selfcheck and -fit-bounds agree with it.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// shapeSamples pools a run's latency samples, in ms, by query shape.
type shapeSamples [][]float64

// floors is each shape's fastest sample: the latency the shape has when
// nothing outside the program delays it. The build host slows memory-bound
// code by 20-70 % for seconds to minutes at a time, so any statistic taken
// inside a shape's distribution — median, quartile, 5th percentile — moves
// with how much of the run the slow state covered. The minimum over a few
// hundred to a few thousand samples of one request does not, as long as a
// handful of them met the fast state, and a cost that is in every sample
// still moves it. What it cannot show is a cost that is in only some
// samples: the pooled percentiles printed beside it do, unsteadily.
func (s shapeSamples) floors() []float64 {
	out := make([]float64, len(s))
	for i, xs := range s {
		out[i] = slices.Min(xs)
	}
	return out
}

// medians is each shape's median sample, for a workload whose ops do not
// repeat: there the differences between samples are the signal.
func (s shapeSamples) medians() []float64 {
	out := make([]float64, len(s))
	for i, xs := range s {
		out[i] = median(xs)
	}
	return out
}

// pooled is every sample of every shape, sorted.
func (s shapeSamples) pooled() []float64 {
	return sortedCopy(slices.Concat(s...))
}
