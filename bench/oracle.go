package main

import (
	"context"
	"fmt"
	"math"

	"distbound"
	"distbound/internal/serve"
)

// sumTolerance is the relative slack SUM and AVG get against the oracle:
// sharded sums reassociate. COUNT, MIN and MAX must be bit-identical.
const sumTolerance = 1e-9

// oracle answers the workload's shapes in process, on the dataset the daemon
// built from the same seed, through Engine.Do on the point-index strategy —
// the physical plan the served path runs. It does not re-prove the ε
// guarantee at this scale (the brute-force classifier is too slow at 1 M
// points; bench_test.go does that at -scale tiny); it checks that what comes
// over the wire is what the library computes.
type oracle struct {
	exact []int64 // per-region exact COUNT, from one ε=0 request
	want  [][]distbound.Result
}

// newOracle computes the expected answer of every shape and the exact
// per-region counts, then lets the engine go: only the answers stay
// resident while the measured passes run.
func newOracle(ctx context.Context, sc scale, seed int64, shapes []shape) (*oracle, error) {
	regions, pts, ws := sc.dataset(seed)
	e := distbound.NewEngine(regions)
	ds, err := e.RegisterPoints("oracle", pts, ws)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	defer e.UnregisterPoints("oracle")
	e.SetResultCacheCapacity(0)
	o := &oracle{want: make([][]distbound.Result, len(shapes))}
	pidx := distbound.StrategyPointIdx
	for i, s := range shapes {
		resp, err := e.Do(ctx, distbound.Request{Dataset: ds, Aggs: s.aggs, Bound: s.bound, Strategy: &pidx})
		if err != nil {
			return nil, fmt.Errorf("oracle %v: %w", s, err)
		}
		o.want[i] = cloneResults(resp.Results)
		resp.Release()
	}
	resp, err := e.Do(ctx, distbound.Request{Dataset: ds, Aggs: aggsCount})
	if err != nil {
		return nil, fmt.Errorf("oracle exact count: %w", err)
	}
	o.exact = append([]int64(nil), resp.Results[0].Counts...)
	resp.Release()
	return o, nil
}

func cloneResults(rs []distbound.Result) []distbound.Result {
	out := make([]distbound.Result, len(rs))
	for i, r := range rs {
		out[i] = distbound.Result{
			Agg:      r.Agg,
			Counts:   append([]int64(nil), r.Counts...),
			Sums:     append([]float64(nil), r.Sums...),
			Extremes: append([]float64(nil), r.Extremes...),
		}
	}
	return out
}

// check compares one wire answer of shape i against the expectation.
func (o *oracle) check(i int, s shape, got serve.QueryResponse) error {
	want := o.want[i]
	if len(got.Results) != len(want) {
		return fmt.Errorf("%v: %d results, want %d", s, len(got.Results), len(want))
	}
	for k := range want {
		w, g := &want[k], got.Results[k]
		if name := aggName(w.Agg); g.Agg != name {
			return fmt.Errorf("%v result %d: agg %q, want %q", s, k, g.Agg, name)
		}
		if len(g.Counts) != len(w.Counts) || len(g.Values) != len(w.Counts) {
			return fmt.Errorf("%v %s: %d counts and %d values, want %d regions", s, g.Agg, len(g.Counts), len(g.Values), len(w.Counts))
		}
		for ri := range w.Counts {
			if g.Counts[ri] != w.Counts[ri] {
				return fmt.Errorf("%v %s region %d: count %d, want %d", s, g.Agg, ri, g.Counts[ri], w.Counts[ri])
			}
			wv, gv := w.Value(ri), g.Values[ri]
			ok := gv == wv
			if w.Agg == distbound.Sum || w.Agg == distbound.Avg {
				ok = math.Abs(gv-wv) <= sumTolerance*math.Max(math.Abs(wv), 1)
			}
			if !ok {
				return fmt.Errorf("%v %s region %d: value %v, want %v", s, g.Agg, ri, gv, wv)
			}
		}
	}
	return nil
}

// countErr accumulates the accuracy side of the paper's trade over regions
// and shapes: Σ|COUNT_ε − COUNT_exact| ÷ ΣCOUNT_exact. Pooled rather than a
// median of per-region ratios because the median is exactly 0 whenever more
// than half the regions have no point in their boundary cells (every ad-hoc
// slice at ε16), and a metric that reads 0 cannot be compared by ratio.
type countErr struct{ diff, exact int64 }

func (c *countErr) add(approx, exact []int64) {
	for ri, e := range exact {
		d := approx[ri] - e
		c.diff += max(d, -d)
		c.exact += e
	}
}

func (c countErr) ratio() float64 { return float64(c.diff) / float64(max(c.exact, 1)) }

// countRelErr pools the error of every shape's COUNT against the exact join.
func (o *oracle) countRelErr() float64 {
	var c countErr
	for _, want := range o.want {
		c.add(want[0].Counts, o.exact)
	}
	return c.ratio()
}
