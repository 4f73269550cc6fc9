// Package join implements the spatial aggregation query of §5:
//
//	SELECT AGG(a_i) FROM P, R
//	WHERE P.loc INSIDE R.geometry
//	GROUP BY R.id
//
// with the paper's four evaluation strategies: the approximate ACT
// index-nested-loop join (§5.1), the exact R*-tree filter-and-refine join,
// the exact S2ShapeIndex-style join over non-distance-bounded hierarchical
// covers, and the Bounded Raster Join on the canvas model (§5.2), plus the
// grid-index GPU baseline and the result-range estimation of §6.
package join

import (
	"fmt"
	"math"

	"distbound/internal/geom"
)

// Agg selects the aggregation function.
type Agg int

// Supported aggregates. COUNT(*), SUM(a) and AVG(a) appear in the paper's
// query template; MIN(a) and MAX(a) are covered by its §2.3 observation that
// any distributive or algebraic aggregate decomposes over cells — partial
// aggregates per cell combine into the final answer.
const (
	Count Agg = iota
	Sum
	Avg
	Min
	Max
)

// String implements fmt.Stringer.
func (a Agg) String() string {
	switch a {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	default:
		return "MAX"
	}
}

// PackAggs encodes an aggregate set order-preservingly into one uint64 — the
// aggregate-set component of both result-cache keys — 4 bits per aggregate
// (offset by 1 so trailing zero nibbles encode the length). Sets longer than
// 16 aggregates, or carrying an aggregate that does not fit a nibble, report
// !ok and bypass the cache.
//
//distbound:noalloc
func PackAggs(aggs []Agg) (uint64, bool) {
	if len(aggs) > 16 {
		return 0, false
	}
	var packed uint64
	for i, a := range aggs {
		if a < 0 || a > 14 {
			return 0, false
		}
		packed |= uint64(a+1) << (4 * i)
	}
	return packed, true
}

// PointSet is the point relation P(loc, a): locations plus an optional
// attribute column used by SUM and AVG.
type PointSet struct {
	Pts     []geom.Point
	Weights []float64
}

// validate checks the weight column against the aggregate.
func (ps PointSet) validate(agg Agg) error { return ps.validateAggs([]Agg{agg}) }

// validateAggs checks the aggregate set against the weight column, and the
// column itself once: one weight per point, every one finite. A NaN or ±Inf
// weight is refused, as the resident store refuses it: the raster join's
// one-shot form multiplies every pixel of a region's bounding box by its 0/1
// mask, so one such weight would turn the SUM of regions that do not contain
// the point into NaN.
func (ps PointSet) validateAggs(aggs []Agg) error {
	if len(aggs) == 0 {
		return fmt.Errorf("join: no aggregates requested")
	}
	for _, a := range aggs {
		if a != Count && ps.Weights == nil {
			return fmt.Errorf("join: %v requires a weight column", a)
		}
	}
	if ps.Weights != nil && len(ps.Weights) != len(ps.Pts) {
		return fmt.Errorf("join: %d weights for %d points", len(ps.Weights), len(ps.Pts))
	}
	for i, w := range ps.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("join: weight %d is %v; aggregation requires finite weights", i, w)
		}
	}
	return nil
}

// weight returns the attribute of point i (1 when absent).
func (ps PointSet) weight(i int) float64 {
	if ps.Weights == nil {
		return 1
	}
	return ps.Weights[i]
}

// Result holds per-region aggregates.
type Result struct {
	Agg Agg
	// Counts is the per-region matched-point count (always filled; for
	// COUNT it is also the aggregate).
	Counts []int64
	// Sums is the per-region weight sum (filled for SUM and AVG).
	Sums []float64
	// Extremes is the per-region running MIN or MAX (filled for those aggs;
	// meaningful only where Counts > 0).
	Extremes []float64
}

// NewResults allocates one zero-initialized Result per aggregate over n
// regions, positionally aligned with aggs — the shape AggregateMultiInto
// fills. Callers that recycle their own columns build the slice themselves;
// this is the plain allocating form.
func NewResults(aggs []Agg, n int) []Result {
	out := make([]Result, len(aggs))
	for k, agg := range aggs {
		out[k] = newResult(agg, n)
	}
	return out
}

func newResult(agg Agg, n int) Result {
	r := Result{Agg: agg, Counts: make([]int64, n)}
	switch agg {
	case Sum, Avg:
		r.Sums = make([]float64, n)
	case Min, Max:
		r.Extremes = make([]float64, n)
		init := math.Inf(1)
		if agg == Max {
			init = math.Inf(-1)
		}
		for i := range r.Extremes {
			r.Extremes[i] = init
		}
	}
	return r
}

// add records a matched point for a region. Extremes use the builtin min and
// max, which order −0 below +0, as every join's accumulator does.
func (r *Result) add(region int, w float64) {
	r.Counts[region]++
	if r.Sums != nil {
		r.Sums[region] += w
	}
	if r.Extremes != nil {
		if r.Agg == Min {
			r.Extremes[region] = min(r.Extremes[region], w)
		} else {
			r.Extremes[region] = max(r.Extremes[region], w)
		}
	}
}

// Value returns the final aggregate for a region. Regions with no matched
// points report 0.
func (r *Result) Value(region int) float64 {
	switch r.Agg {
	case Count:
		return float64(r.Counts[region])
	case Sum:
		return r.Sums[region]
	case Min, Max:
		if r.Counts[region] == 0 {
			return 0
		}
		return r.Extremes[region]
	default:
		if r.Counts[region] == 0 {
			return 0
		}
		return r.Sums[region] / float64(r.Counts[region])
	}
}

// BruteForce computes the exact aggregation by testing every point against
// every region — the ground truth for correctness tests and error metrics.
// A point on a shared boundary matches every region containing it.
func BruteForce(ps PointSet, regions []geom.Region, agg Agg) (Result, error) {
	if err := ps.validate(agg); err != nil {
		return Result{}, err
	}
	res := newResult(agg, len(regions))
	for i, p := range ps.Pts {
		for ri, rg := range regions {
			if rg.ContainsPoint(p) {
				res.add(ri, ps.weight(i))
			}
		}
	}
	return res, nil
}

// MedianRelativeError returns the median over regions of
// |approx − exact| / exact, skipping regions with an exact value of 0 — the
// accuracy measure Figure 7 reports ("the median error is only about
// 0.15%").
func MedianRelativeError(approx, exact Result) float64 {
	var errs []float64
	for i := range exact.Counts {
		e := exact.Value(i)
		if e == 0 {
			continue
		}
		a := approx.Value(i)
		d := (a - e) / e
		if d < 0 {
			d = -d
		}
		errs = append(errs, d)
	}
	if len(errs) == 0 {
		return 0
	}
	// Median by partial sort (n is small: one entry per region).
	for i := 0; i < len(errs); i++ {
		for j := i + 1; j < len(errs); j++ {
			if errs[j] < errs[i] {
				errs[i], errs[j] = errs[j], errs[i]
			}
		}
	}
	return errs[len(errs)/2]
}
