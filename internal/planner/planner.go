// Package planner implements the query-optimization opportunity of §4: once
// spatial queries are expressed over distance-bounded raster representations,
// multiple physical plans answer the same aggregation — the cell-lookup join
// (act), the Bounded Raster Join (brj), or the exact join — and "the
// optimizer can choose different query plans based on the query parameters,
// the distance bound ...". For an ad-hoc point set the choice is a rule on
// the bound alone, read from a measured grid (BenchmarkAdhocArms in the root
// package); a registered dataset has its own rule in the engine.
package planner

import (
	"distbound/internal/geom"
	"distbound/internal/join"
)

// Strategy identifies a physical plan for the aggregation query.
type Strategy int

// Available strategies.
const (
	// StrategyExact answers exactly from the engine's exact cover: only
	// points in boundary cells pay the point-in-region test.
	StrategyExact Strategy = iota
	// StrategyACT is the approximate cell-lookup join: each point looks up
	// its region in the bound's cover table, built once per bound.
	StrategyACT
	// StrategyBRJ is the Bounded Raster Join: region masks cached per bound
	// as covered row spans; a run sorts the points by pixel and sweeps each
	// mask's spans. It answers COUNT, SUM and AVG only.
	StrategyBRJ
	// StrategyPointIdx resolves each region's cover ranges against a
	// resident point store's sorted keys and folds the range aggregates. It
	// exists only for a registered dataset, where it is the engine's rule,
	// so ChooseInto never picks it.
	StrategyPointIdx
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyExact:
		return "exact"
	case StrategyACT:
		return "act"
	case StrategyPointIdx:
		return "pointidx"
	default:
		return "brj"
	}
}

// Query describes an ad-hoc aggregation request for planning. The rule reads
// Bound and Aggs; the other fields are not read, and stay only until the
// repository benchmark's harness (bench/, ROADMAP item 1) stops setting them.
type Query struct {
	// NumPoints is not read.
	NumPoints int
	// Regions is not read.
	Regions []geom.Region
	// Bound is the distance bound ε; ≤ 0 or NaN means exact answers.
	Bound float64
	// Repetitions is not read.
	Repetitions int
	// Aggs is the aggregate set, planned as one: every aggregate in it rides
	// the same plan. A set holding MIN or MAX excludes StrategyBRJ, whose
	// additive canvases carry counts and sums only.
	Aggs []join.Agg
	// Stats is not read.
	Stats *RegionStats
}

// RegionStats is empty: the rule reads no region statistic. It stays, with
// ComputeStats, only until the repository benchmark's harness stops naming
// it (ROADMAP item 1).
type RegionStats struct{}

// ComputeStats returns the empty RegionStats; see RegionStats.
func ComputeStats([]geom.Region) RegionStats { return RegionStats{} }

// CostModel is empty: the ad-hoc arm is chosen by ChooseInto's rule, not by
// comparing costs. It stays, with DefaultCostModel, only until the
// repository benchmark's harness stops naming it (ROADMAP item 1).
type CostModel struct{}

// DefaultCostModel returns the empty CostModel; see CostModel.
func DefaultCostModel() CostModel { return CostModel{} }

// The rule's bands, read from BenchmarkAdhocArms' warm walls on three region
// sets at one worker and at GOMAXPROCS (the table is in README.md).
const (
	// actFrom is the finest bound act answers. At ε2 exact is the fastest
	// arm on two of the three region sets, and act's cover — whose size
	// doubles with every halving of ε — takes seconds to build; below the
	// grid nothing was measured, so exact is the safe arm there too. The
	// band also keeps every bound finer than a cover's leaf cell exact.
	actFrom = 4
	// brjFrom is the finest bound brj answers. From ε32 up it is the fastest
	// arm on one worker on the two large region sets, and its count error is
	// 3–11× lower than act's at the same ε.
	brjFrom = 32
)

// Plan is ChooseInto's output. It stays, holding only the strategy, until
// the repository benchmark's harness stops declaring one (ROADMAP item 1);
// the engine itself reads the rule's Strategy directly.
type Plan struct {
	Strategy Strategy
}

// ChooseInto writes q's ad-hoc plan into p, replacing all of it: ε ≤ 0 or
// NaN, or ε below actFrom, runs exact; ε below brjFrom runs act; coarser
// bounds run brj, or act when the aggregate set holds MIN or MAX.
func (CostModel) ChooseInto(q Query, p *Plan) {
	switch {
	case !(q.Bound >= actFrom):
		p.Strategy = StrategyExact
	case q.Bound < brjFrom || join.ExtremeIn(q.Aggs):
		p.Strategy = StrategyACT
	default:
		p.Strategy = StrategyBRJ
	}
}
