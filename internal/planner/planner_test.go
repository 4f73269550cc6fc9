package planner

import (
	"math"
	"strings"
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

func TestExplain(t *testing.T) {
	for _, c := range []struct {
		q    Query
		want string
	}{
		{Query{Bound: 0}, "* exact      rule: ad-hoc, no positive bound"},
		{Query{Bound: 2}, "* exact      rule: ad-hoc, ε < 4"},
		{Query{Bound: 16}, "* act        rule: ad-hoc, 4 ≤ ε < 32"},
		{Query{Bound: 64}, "* brj        rule: ad-hoc, ε ≥ 32"},
		{Query{Bound: 64, Aggs: []join.Agg{join.Min}}, "* act        rule: ad-hoc, ε ≥ 32 with MIN/MAX"},
	} {
		if got := choose(c.q).Explain(); got != c.want {
			t.Errorf("ε%g %v: Explain renders %q, want %q", c.q.Bound, c.q.Aggs, got, c.want)
		}
	}
	if Strategy(0).String() != "exact" || StrategyACT.String() != "act" || StrategyBRJ.String() != "brj" {
		t.Error("strategy names wrong")
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
	if StrategyPointIdx.String() != "pointidx" {
		t.Error("strategy name wrong")
	}
}

// TestExplainCoverPlanLine pins the cover-plan rendering: plans carrying
// measured CoverStats print the line, others never do — and a plan the
// engine's registered-dataset rule fixed renders as its one rule line.
func TestExplainCoverPlanLine(t *testing.T) {
	p := choose(Query{Bound: 16})
	if strings.Contains(p.Explain(), "cover-plan:") {
		t.Error("Explain invented a cover-plan line without measured stats")
	}
	p.Cover = CoverStats{Ranges: 1200, Boundaries: 1500}
	out := p.Explain()
	if !strings.Contains(out, "cover-plan: 1200 region-ranges, 1500 boundary probes per query") {
		t.Errorf("cover-plan line drifted:\n%s", out)
	}

	rule := Plan{Strategy: StrategyPointIdx, Cover: p.Cover}
	if got, want := rule.Explain(), "* pointidx   rule: registered dataset, bound > 0\n"+
		"cover-plan: 1200 region-ranges, 1500 boundary probes per query"; got != want {
		t.Errorf("rule plan renders\n%s\nwant\n%s", got, want)
	}
	if got, want := (Plan{Strategy: StrategyExact}).Explain(), "* exact      rule: registered dataset, no positive bound"; got != want {
		t.Errorf("exact rule plan renders %q, want %q", got, want)
	}
}

// TestChooseIntoResetsPlan pins the caller-retained Plan contract: ChooseInto
// replaces every field of the plan it is handed, and plans without
// allocating.
func TestChooseIntoResetsPlan(t *testing.T) {
	p := Plan{Strategy: StrategyPointIdx, Cover: CoverStats{Ranges: 1}}
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
