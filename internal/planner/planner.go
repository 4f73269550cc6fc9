// Package planner implements the query-optimization opportunity of §4: once
// spatial queries are expressed over distance-bounded raster representations,
// multiple physical plans answer the same aggregation — the ACT-indexed
// lookup join, the Bounded Raster Join on canvases, or the classic exact
// filter-and-refine — and "the optimizer can choose different query plans
// based on the query parameters, the distance bound ... and the estimated
// selectivity". This planner estimates each streaming strategy's cost from
// workload statistics and a constant model and picks the cheapest.
package planner

import (
	"fmt"
	"math"
	"sort"

	"distbound/internal/canvas"
	"distbound/internal/geom"
	"distbound/internal/join"
)

// Strategy identifies a physical plan for the aggregation query.
type Strategy int

// Available strategies.
const (
	// StrategyExact is the exact filter-and-refine join (exact answers). The
	// estimate prices the paper's baseline — an R*-tree descent and a PIP per
	// candidate, no build; the engine answers from its exact cover, where
	// only points in boundary cells pay the point-in-region test.
	StrategyExact Strategy = iota
	// StrategyACT is the approximate cell-lookup join: expensive
	// distance-bounded covers built once per bound, then one lookup per
	// point. The estimate prices the paper's ACT trie; the engine answers
	// from the bound's cover table, which holds the same cells and gives the
	// same answers.
	StrategyACT
	// StrategyBRJ is the Bounded Raster Join. The engine caches its region
	// masks per bound as covered row spans, and a run sorts the points by
	// pixel and sweeps each mask's spans: it costs the points plus the spans.
	// The model still prices the one-shot canvas join — mask and tile pixels,
	// not refitted — so it over-charges cached runs; the picks it makes on
	// the benchmark's shapes are unchanged.
	StrategyBRJ
	// StrategyPointIdx resolves each region's cover ranges against a
	// resident point store's sorted keys in one galloping sweep and folds the
	// range aggregates from its prefix-sum and block columns: per-run cost
	// proportional to cover ranges, independent of the point count. It
	// exists only for a registered dataset, where it is the rule rather than
	// a choice, so the cost model never weighs it.
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

// Query describes an aggregation workload for planning.
type Query struct {
	// NumPoints is the point-set size.
	NumPoints int
	// Regions is the region set (GROUP BY side).
	Regions []geom.Region
	// Bound is the distance bound ε; ≤ 0 means exact answers are required,
	// which forces StrategyExact.
	Bound float64
	// Repetitions is how many times the same region set will be aggregated
	// (e.g. one per time slice in a dashboard); index build cost amortizes
	// over it. 0 means 1.
	Repetitions int
	// Aggs is the aggregate set of the query. One request computes every
	// aggregate in it with a single multi-fold pass over a single build, so
	// the planner costs the whole set as ONE run — the expensive per-item
	// work (lookups, range probes, scatters) is shared and the extra
	// per-aggregate fold arithmetic is noise against it. The one set-level
	// decision the planner must make is exclusion: the Bounded Raster Join
	// is unavailable iff ANY aggregate in the set is MIN or MAX — its
	// additive canvases carry counts and sums only, so ChooseInto excludes
	// StrategyBRJ and the plan reflects the fallback instead of the executor
	// silently swapping strategies. Empty means a single COUNT-like
	// aggregate.
	Aggs []join.Agg
	// CachedBuild marks strategies whose one-time build artifact (the
	// bound's cover set for act, the exact cover, or the BRJ region masks)
	// is already resident in the caller's cache — whatever request built
	// it: their build cost has been paid, so Estimate charges none. This is
	// how repetition amortization extends across concurrent callers sharing
	// one engine.
	CachedBuild map[Strategy]bool
	// Stats, when non-nil, is the precomputed ComputeStats of Regions;
	// Estimate then skips its per-call region scan. Callers own keeping it
	// consistent with Regions.
	Stats *RegionStats
}

// RegionStats summarizes the geometry-dependent inputs of the cost model.
// Computing it scans every region's vertices; callers planning repeatedly
// over a fixed region set should ComputeStats once and pass the result via
// Query.Stats.
type RegionStats struct {
	count         int
	meanVertices  float64
	totalPerim    float64
	totalBBoxArea float64
	extent        geom.Rect
}

// ComputeStats precomputes the cost-model statistics for a region set.
func ComputeStats(regions []geom.Region) RegionStats { return statsOf(regions) }

func statsOf(regions []geom.Region) RegionStats {
	st := RegionStats{count: len(regions), extent: geom.EmptyRect()}
	var verts int
	for _, rg := range regions {
		verts += rg.NumVertices()
		st.totalBBoxArea += rg.Bounds().Area()
		st.extent = st.extent.Union(rg.Bounds())
		st.totalPerim += perimeterOf(rg)
	}
	if st.count > 0 {
		st.meanVertices = float64(verts) / float64(st.count)
	}
	return st
}

func perimeterOf(rg geom.Region) float64 {
	switch v := rg.(type) {
	case *geom.Polygon:
		return v.Perimeter()
	case *geom.MultiPolygon:
		var p float64
		for _, part := range v.Polygons {
			p += part.Perimeter()
		}
		return p
	default:
		// Fall back to the bounding-box perimeter for unknown region kinds
		// (e.g. circles): same order of magnitude.
		return rg.Bounds().Perimeter()
	}
}

// CostModel holds the per-operation constants (nanoseconds). The defaults
// were measured on this repository's benchmark suite; a caller on a very
// different machine can overwrite them.
type CostModel struct {
	// TrieLookup is the ACT per-point lookup cost.
	TrieLookup float64
	// TrieCellBuild is the per-cell cost of HR rasterization + insertion.
	TrieCellBuild float64
	// TreePointQuery is the R*-tree per-point MBR filter cost at moderate
	// region counts; grows logarithmically with the region count.
	TreePointQuery float64
	// PIPPerVertex is the refinement cost per polygon vertex.
	PIPPerVertex float64
	// PixelWrite is the per-pixel rasterization/blend/sum cost of BRJ.
	PixelWrite float64
	// PointScatter is the per-point cost of rendering points to a canvas.
	PointScatter float64
}

// DefaultCostModel returns constants measured on the reference machine
// (single-threaded Go, ~2.7 GHz server core).
func DefaultCostModel() CostModel {
	return CostModel{
		TrieLookup:     450,
		TrieCellBuild:  1100,
		TreePointQuery: 550,
		PIPPerVertex:   4,
		PixelWrite:     2.5,
		PointScatter:   25,
	}
}

// Cost is an estimated execution profile in nanoseconds.
type Cost struct {
	Build  float64 // one-time preparation
	PerRun float64 // per repetition
	Total  float64 // Build + Repetitions × PerRun
}

// Estimate predicts the cost of running q with streaming strategy s.
func (m CostModel) Estimate(q Query, s Strategy) Cost {
	reps := float64(q.Repetitions)
	if reps < 1 {
		reps = 1
	}
	st := q.Stats
	if st == nil {
		s := statsOf(q.Regions)
		st = &s
	}
	n := float64(q.NumPoints)

	var c Cost
	switch s {
	case StrategyExact:
		// Filter: tree descent grows with log(regions); candidates per point
		// estimated from bbox-area overlap (≥ 1 where regions tile space).
		logR := math.Log2(float64(st.count) + 2)
		candidates := 1.0
		if a := st.extent.Area(); a > 0 {
			candidates = math.Max(1, st.totalBBoxArea/a)
		}
		c.PerRun = n * (m.TreePointQuery*logR/8 + candidates*st.meanVertices*m.PIPPerVertex)
	case StrategyACT:
		cellSide := q.Bound / math.Sqrt2
		if cellSide <= 0 {
			return Cost{Total: math.Inf(1)}
		}
		// Boundary cells ≈ perimeter/side; interiors add a comparable count
		// under quadtree coalescing.
		cells := 2 * st.totalPerim / cellSide
		c.Build = cells * m.TrieCellBuild
		c.PerRun = n * m.TrieLookup
	case StrategyBRJ:
		pixel := q.Bound / math.Sqrt2
		if pixel <= 0 {
			return Cost{Total: math.Inf(1)}
		}
		maskPixels := st.totalBBoxArea / (pixel * pixel)
		tilePixels := st.extent.Area() / (pixel * pixel)
		// Multi-pass tax: clearing/point canvases per tile.
		side := math.Max(st.extent.Width(), st.extent.Height()) / pixel
		tiles := math.Max(1, math.Ceil(side/canvas.DefaultMaxTextureSize))
		// Mask rendering (edge walks + span fills) is the one-time half of
		// the mask cost and is cacheable per bound; the per-run half is the
		// read-only mask·points blend. The split keeps the one-shot total
		// equal to the unsplit model while letting high repetition counts
		// amortize the render.
		maskCost := maskPixels * m.PixelWrite
		c.Build = maskCost / 2
		c.PerRun = maskCost/2 + tilePixels*m.PixelWrite + n*m.PointScatter + tiles*tiles*1e5
	}
	if q.CachedBuild[s] {
		c.Build = 0
	}
	c.Total = c.Build + reps*c.PerRun
	return c
}

// CoverStats describes a resident dataset's cover table — what the
// point-index strategy will actually execute at this bound. The zero value
// means "no resident cover table is built yet"; Explain prints the
// cover-plan line only when the stats are real, never estimated.
type CoverStats struct {
	// Ranges is the total per-region cover range count — the probe count a
	// base fill pays.
	Ranges int
	// Boundaries is the number of distinct range boundaries — what the
	// monotone sweep resolves after a compaction.
	Boundaries int
}

// Plan is a strategy decision with the alternatives it was weighed against.
type Plan struct {
	Strategy Strategy
	// Costs holds one estimate per strategy ChooseInto considered. It is empty
	// for a plan fixed by rule rather than by comparison — the engine's
	// registered-dataset rule (bound > 0 ⇒ pointidx, otherwise exact).
	Costs map[Strategy]Cost
	// Cover carries the resident cover plan's measured shape when its
	// artifact is already built (the engine fills it in); Explain renders
	// it as the cover-plan line.
	Cover CoverStats
}

// ChooseInto picks the cheapest streaming strategy for q under the model —
// once per aggregate set: every aggregate in q.Aggs rides the same plan,
// build and fold pass. A bound that is not strictly positive (including NaN)
// forces the exact plan; a set containing MIN or MAX excludes the raster
// join, which cannot answer extremes. The plan is written into a
// caller-retained Plan: p.Costs is cleared and refilled when present
// (allocated once when nil), so a serving loop that recycles its Plan plans
// without allocating. All other fields are reset.
func (m CostModel) ChooseInto(q Query, p *Plan) {
	extreme := join.ExtremeIn(q.Aggs)
	if p.Costs == nil {
		p.Costs = make(map[Strategy]Cost, 4)
	} else {
		clear(p.Costs)
	}
	p.Cover = CoverStats{}
	if !(q.Bound > 0) {
		p.Strategy = StrategyExact
		p.Costs[StrategyExact] = m.Estimate(q, StrategyExact)
		return
	}
	best := StrategyExact
	bestCost := math.Inf(1)
	for _, s := range [...]Strategy{StrategyExact, StrategyACT, StrategyBRJ} {
		if s == StrategyBRJ && extreme {
			continue
		}
		c := m.Estimate(q, s)
		p.Costs[s] = c
		if c.Total < bestCost {
			best, bestCost = s, c.Total
		}
	}
	p.Strategy = best
}

// Explain renders the plan for diagnostics: the cost comparison, or the one
// rule line of a plan that had no alternative to weigh.
func (p Plan) Explain() string {
	type row struct {
		s Strategy
		c Cost
	}
	rows := make([]row, 0, len(p.Costs))
	for s, c := range p.Costs {
		rows = append(rows, row{s, c})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].c.Total < rows[j].c.Total })
	out := ""
	for i, r := range rows {
		marker := " "
		if r.s == p.Strategy {
			marker = "*"
		}
		out += fmt.Sprintf("%s %-10s build=%.1fms run=%.1fms total=%.1fms",
			marker, r.s, r.c.Build/1e6, r.c.PerRun/1e6, r.c.Total/1e6)
		if i < len(rows)-1 {
			out += "\n"
		}
	}
	if len(rows) == 0 {
		why := "bound > 0"
		if p.Strategy == StrategyExact {
			why = "no positive bound"
		}
		out = fmt.Sprintf("* %-10s rule: registered dataset, %s", p.Strategy, why)
	}
	if p.Cover != (CoverStats{}) {
		out += fmt.Sprintf("\ncover-plan: %d region-ranges, %d boundary probes per query",
			p.Cover.Ranges, p.Cover.Boundaries)
	}
	return out
}
