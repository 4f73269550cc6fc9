package planner

import (
	"math"
	"testing"

	"distbound/internal/join"
)

// choose plans q into a fresh Plan.
func choose(q Query) Plan {
	var p Plan
	CostModel{}.ChooseInto(q, &p)
	return p
}

// TestChooseArchetypes pins the rule's bands at and between their edges:
// exact below actFrom, act up to brjFrom, brj from there on.
func TestChooseArchetypes(t *testing.T) {
	for _, c := range []struct {
		bound float64
		want  Strategy
	}{
		{-1, StrategyExact}, {0, StrategyExact}, {1e-9, StrategyExact}, {2, StrategyExact}, {3.99, StrategyExact},
		{4, StrategyACT}, {8, StrategyACT}, {16, StrategyACT}, {31.9, StrategyACT},
		{32, StrategyBRJ}, {64, StrategyBRJ}, {1e6, StrategyBRJ}, {math.Inf(1), StrategyBRJ},
	} {
		if p := choose(Query{Bound: c.bound}); p.Strategy != c.want {
			t.Errorf("ε%g: chose %v, want %v", c.bound, p.Strategy, c.want)
		}
	}
}

// TestChooseIgnoresUnreadFields: the fields the bench harness still sets —
// point count, regions, repetitions, stats — change no pick.
func TestChooseIgnoresUnreadFields(t *testing.T) {
	st := ComputeStats(nil)
	for _, bound := range []float64{0, 2, 16, 64} {
		bare := choose(Query{Bound: bound})
		full := choose(Query{NumPoints: 2_000_000, Bound: bound, Repetitions: 100_000, Stats: &st})
		if bare != full {
			t.Errorf("ε%g: %+v without the unread fields, %+v with them", bound, bare, full)
		}
	}
}

func TestExtremeAggExcludesBRJ(t *testing.T) {
	for _, aggs := range [][]join.Agg{{join.Count, join.Min}, {join.Max}, {join.Sum, join.Max, join.Avg}} {
		if p := choose(Query{Bound: 64, Aggs: aggs}); p.Strategy != StrategyACT {
			t.Errorf("%v at ε64 chose %v, want act", aggs, p.Strategy)
		}
		if p := choose(Query{Bound: 16, Aggs: aggs}); p.Strategy != StrategyACT {
			t.Errorf("%v at ε16 chose %v, want act", aggs, p.Strategy)
		}
	}
	if p := choose(Query{Bound: 64, Aggs: []join.Agg{join.Count, join.Sum, join.Avg}}); p.Strategy != StrategyBRJ {
		t.Errorf("an additive set at ε64 chose %v, want brj", p.Strategy)
	}
}

func TestNaNBoundForcesExact(t *testing.T) {
	if p := choose(Query{Bound: math.NaN()}); p.Strategy != StrategyExact {
		t.Errorf("NaN bound chose %v", p.Strategy)
	}
}

func TestPointIdxRequiresResidentPoints(t *testing.T) {
	// The ad-hoc rule plans streaming strategies only: a point set it plans
	// for has no index to probe, so pointidx is never chosen.
	for _, bound := range []float64{0, 2, 16, 64, 1e9} {
		if p := choose(Query{Bound: bound}); p.Strategy == StrategyPointIdx {
			t.Errorf("ε%g: pointidx chosen for an ad-hoc point set", bound)
		}
	}
	if Strategy(0).String() != "exact" || StrategyACT.String() != "act" || StrategyBRJ.String() != "brj" ||
		StrategyPointIdx.String() != "pointidx" {
		t.Error("strategy names wrong")
	}
}

// TestChooseIntoResetsPlan pins the caller-retained Plan contract: ChooseInto
// replaces every field of the plan it is handed, and plans without
// allocating.
func TestChooseIntoResetsPlan(t *testing.T) {
	p := Plan{Strategy: StrategyPointIdx}
	CostModel{}.ChooseInto(Query{Bound: 0}, &p)
	if p != choose(Query{Bound: 0}) {
		t.Errorf("replan did not reset the plan: %+v", p)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		CostModel{}.ChooseInto(Query{Bound: 16, Aggs: []join.Agg{join.Count}}, &p)
	}); allocs > 0 {
		t.Errorf("ChooseInto allocates %.1f times per plan", allocs)
	}
}

// TestAdhocBenchmarkPicks pins the three picks the repository benchmark's
// adhoc_join workload rests on: its shapes are ε0 {count}, ε16
// {count,sum,avg} and ε64 {count,sum}.
//
// The ε64 pick is the one the grid contests, so what it trades is written
// here: at GOMAXPROCS act's warm wall is at or below brj's there (brj's
// sorted-pixel run does not fan out), but at equal ε act is conservative and
// brj centroid-sampled — on the bench partition act@ε64 reads a pooled count
// error of 0.0196 against brj's 0.0042, and sending this shape to act would
// move adhoc_join's count_rel_err past the benchmark's bound.
func TestAdhocBenchmarkPicks(t *testing.T) {
	sums := []join.Agg{join.Count, join.Sum, join.Avg}
	for _, c := range []struct {
		aggs  []join.Agg
		bound float64
		want  Strategy
	}{
		{[]join.Agg{join.Count}, 0, StrategyExact},
		{sums, 16, StrategyACT},
		{[]join.Agg{join.Count, join.Sum}, 64, StrategyBRJ},
	} {
		if p := choose(Query{NumPoints: 50_000, Bound: c.bound, Repetitions: 1000, Aggs: c.aggs}); p.Strategy != c.want {
			t.Errorf("ε%g %v: chose %v, want %v", c.bound, c.aggs, p.Strategy, c.want)
		}
	}
}
