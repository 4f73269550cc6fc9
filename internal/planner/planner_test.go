package planner

import (
	"math"
	"strings"
	"testing"

	"distbound/internal/data"
)

func TestChooseArchetypes(t *testing.T) {
	m := DefaultCostModel()
	regions := data.Regions(data.Neighborhoods(1))

	// Exact requirement (no bound) forces the exact plan.
	p := m.Choose(Query{NumPoints: 1_000_000, Regions: regions, Bound: 0})
	if p.Strategy != StrategyExact {
		t.Errorf("no bound: chose %v", p.Strategy)
	}

	// One-shot query at a moderate bound: BRJ needs no build and wins over
	// paying for an ACT index used once.
	oneShot := m.Choose(Query{NumPoints: 2_000_000, Regions: regions, Bound: 10, Repetitions: 1})
	if oneShot.Strategy == StrategyACT {
		t.Errorf("one-shot: chose ACT despite unamortized build (costs: %v)", oneShot.Costs)
	}

	// Dashboard workload at a fine bound: thousands of repetitions amortize
	// the ACT build, and per-run trie lookups beat re-rasterizing a huge
	// canvas every time (at coarse bounds BRJ legitimately stays cheaper per
	// run, as Figure 7 shows).
	repeated := m.Choose(Query{NumPoints: 2_000_000, Regions: regions, Bound: 2, Repetitions: 5000})
	if repeated.Strategy != StrategyACT {
		t.Errorf("repeated: chose %v (costs: %v)", repeated.Strategy, repeated.Costs)
	}

	// Tiny bound: BRJ's canvas explodes quadratically; it must not win
	// against ACT at high repetitions.
	tiny := m.Choose(Query{NumPoints: 2_000_000, Regions: regions, Bound: 0.5, Repetitions: 5000})
	if tiny.Strategy == StrategyBRJ {
		t.Errorf("tiny bound: chose BRJ (costs: %v)", tiny.Costs)
	}
}

func TestEstimateMonotonicity(t *testing.T) {
	m := DefaultCostModel()
	regions := data.Regions(data.Neighborhoods(1))
	base := Query{NumPoints: 1_000_000, Regions: regions, Bound: 10, Repetitions: 1}

	// BRJ cost grows as the bound shrinks.
	coarse := m.Estimate(base, StrategyBRJ)
	fine := m.Estimate(Query{NumPoints: base.NumPoints, Regions: regions, Bound: 1, Repetitions: 1}, StrategyBRJ)
	if fine.Total <= coarse.Total {
		t.Errorf("BRJ cost did not grow with finer bound: %v vs %v", fine.Total, coarse.Total)
	}

	// ACT build grows as the bound shrinks; per-run does not.
	actCoarse := m.Estimate(base, StrategyACT)
	actFine := m.Estimate(Query{NumPoints: base.NumPoints, Regions: regions, Bound: 1, Repetitions: 1}, StrategyACT)
	if actFine.Build <= actCoarse.Build {
		t.Error("ACT build did not grow with finer bound")
	}
	if actFine.PerRun != actCoarse.PerRun {
		t.Error("ACT per-run cost should not depend on the bound")
	}

	// Exact cost grows with mean vertex count.
	simple := m.Estimate(Query{NumPoints: 1_000_000, Regions: data.Regions(data.Census(1, 200)), Bound: 10}, StrategyExact)
	complexQ := m.Estimate(Query{NumPoints: 1_000_000, Regions: data.Regions(data.Boroughs(1)), Bound: 10}, StrategyExact)
	if complexQ.PerRun <= simple.PerRun {
		t.Errorf("exact cost did not grow with polygon complexity: %v vs %v", complexQ.PerRun, simple.PerRun)
	}

	// Infinite cost for approximate strategies without a bound.
	if c := m.Estimate(Query{NumPoints: 10, Regions: regions, Bound: 0}, StrategyACT); !isInf(c.Total) {
		t.Error("ACT with zero bound should be infeasible")
	}
}

func isInf(v float64) bool { return v > 1e300 }

func TestExtremeAggExcludesBRJ(t *testing.T) {
	m := DefaultCostModel()
	regions := data.Regions(data.Neighborhoods(1))
	base := Query{NumPoints: 2_000_000, Regions: regions, Bound: 10, Repetitions: 1}

	plain := m.Choose(base)
	if plain.Strategy != StrategyBRJ {
		t.Skipf("baseline query chose %v, BRJ exclusion not observable", plain.Strategy)
	}
	extreme := base
	extreme.ExtremeAgg = true
	p := m.Choose(extreme)
	if p.Strategy == StrategyBRJ {
		t.Error("MIN/MAX query planned BRJ")
	}
	if _, ok := p.Costs[StrategyBRJ]; ok {
		t.Error("MIN/MAX plan lists BRJ as a considered alternative")
	}
}

func TestCachedBuildZeroesBuildCost(t *testing.T) {
	m := DefaultCostModel()
	regions := data.Regions(data.Neighborhoods(1))
	base := Query{NumPoints: 100_000, Regions: regions, Bound: 2, Repetitions: 1}

	cold := m.Estimate(base, StrategyACT)
	if cold.Build <= 0 {
		t.Fatalf("ACT estimate has no build cost: %+v", cold)
	}
	warm := base
	warm.CachedBuild = map[Strategy]bool{StrategyACT: true}
	c := m.Estimate(warm, StrategyACT)
	if c.Build != 0 {
		t.Errorf("cached ACT build still costs %g", c.Build)
	}
	if c.PerRun != cold.PerRun {
		t.Error("caching changed the per-run cost")
	}
	// Other strategies keep their build cost.
	if b := m.Estimate(warm, StrategyBRJ).Build; b <= 0 {
		t.Error("BRJ build zeroed without being cached")
	}
}

func TestBRJBuildRunSplitPreservesOneShotTotal(t *testing.T) {
	m := DefaultCostModel()
	regions := data.Regions(data.Neighborhoods(1))
	q := Query{NumPoints: 1_000_000, Regions: regions, Bound: 10, Repetitions: 1}
	c := m.Estimate(q, StrategyBRJ)
	if c.Build <= 0 || c.PerRun <= 0 {
		t.Fatalf("BRJ cost not split into build and per-run: %+v", c)
	}
	// With the build cached, many repetitions amortize: total over n runs is
	// strictly less than n one-shot runs.
	rep := q
	rep.Repetitions = 100
	rc := m.Estimate(rep, StrategyBRJ)
	if rc.Total >= 100*c.Total {
		t.Errorf("repetition did not amortize the mask render: %g vs %g", rc.Total, 100*c.Total)
	}
}

func TestNaNBoundForcesExact(t *testing.T) {
	m := DefaultCostModel()
	regions := data.Regions(data.Census(1, 20))
	nan := math.NaN()
	p := m.Choose(Query{NumPoints: 1000, Regions: regions, Bound: nan})
	if p.Strategy != StrategyExact {
		t.Errorf("NaN bound chose %v", p.Strategy)
	}
}

func TestExplain(t *testing.T) {
	m := DefaultCostModel()
	p := m.Choose(Query{NumPoints: 100_000, Regions: data.Regions(data.Census(1, 100)), Bound: 10})
	out := p.Explain()
	if !strings.Contains(out, "*") {
		t.Error("Explain does not mark the chosen plan")
	}
	if len(strings.Split(out, "\n")) != 4 {
		t.Errorf("Explain should list 3 strategies plus the cost-model line:\n%s", out)
	}
	if !strings.HasSuffix(out, "cost-model: default") {
		t.Errorf("Explain should end with the cost-model line:\n%s", out)
	}
	if Strategy(0).String() != "exact(R*)" || StrategyACT.String() != "act" || StrategyBRJ.String() != "brj" {
		t.Error("strategy names wrong")
	}
}

func TestPointIdxRequiresResidentPoints(t *testing.T) {
	m := DefaultCostModel()
	regions := data.Regions(data.Neighborhoods(1))
	q := Query{NumPoints: 2_000_000, Regions: regions, Bound: 16, Repetitions: 100000}

	// Ad-hoc point sets have no index to probe: infeasible, never chosen.
	if c := m.Estimate(q, StrategyPointIdx); !isInf(c.Total) {
		t.Error("pointidx feasible without a resident dataset")
	}
	p := m.Choose(q)
	if p.Strategy == StrategyPointIdx {
		t.Error("pointidx chosen for an ad-hoc point set")
	}
	if _, ok := p.Costs[StrategyPointIdx]; ok {
		t.Error("ad-hoc plan lists pointidx as a considered alternative")
	}

	// Resident, repetition-heavy, large dataset: per-run cost independent of
	// the point count must beat per-point streaming.
	q.ResidentPoints = true
	p = m.Choose(q)
	if p.Strategy != StrategyPointIdx {
		t.Errorf("repeated resident query planned %v (costs: %v)", p.Strategy, p.Costs)
	}
	if !strings.Contains(p.Explain(), "pointidx") {
		t.Error("Explain omits pointidx for a resident query")
	}

	// The per-run cost must not depend on the point count (that is the whole
	// point), while ACT's does.
	small := m.Estimate(Query{NumPoints: 1000, Regions: regions, Bound: 16, ResidentPoints: true}, StrategyPointIdx)
	big := m.Estimate(q, StrategyPointIdx)
	if small.PerRun != big.PerRun {
		t.Error("pointidx per-run cost depends on the point count")
	}
	// Cached covers zero the build cost like every other strategy.
	cached := q
	cached.CachedBuild = map[Strategy]bool{StrategyPointIdx: true}
	if c := m.Estimate(cached, StrategyPointIdx); c.Build != 0 {
		t.Errorf("cached pointidx build still costs %g", c.Build)
	}
	if StrategyPointIdx.String() != "pointidx" {
		t.Error("strategy name wrong")
	}
}

// TestDeltaTermScalesWithLogRanges pins the inverted delta join's cost
// term: pointidx per-run cost grows with DeltaPoints × log2(ranges) — each
// delta row is binary-searched into the global merged range list once, not
// re-scanned per region — so even a 100% delta no longer tips the planner
// off the point index (the execution really is that cheap now), while
// Choose/Explain still surface the fraction so operators see compaction
// debt.
func TestDeltaTermScalesWithLogRanges(t *testing.T) {
	regions := data.Regions(data.Census(3, 200))
	m := DefaultCostModel()
	base := Query{NumPoints: 1_000_000, Regions: regions, Bound: 16, Repetitions: 1_000_000, ResidentPoints: true}
	clean := m.Estimate(base, StrategyPointIdx)

	withDelta := base
	withDelta.DeltaPoints = 10_000
	dirty := m.Estimate(withDelta, StrategyPointIdx)
	st := statsOf(regions)
	ranges := 2 * st.totalPerim / (base.Bound / math.Sqrt2) / rangeMergeFactor
	wantExtra := float64(withDelta.DeltaPoints) * math.Log2(ranges+2) * m.DeltaProbe
	if got := dirty.PerRun - clean.PerRun; math.Abs(got-wantExtra) > 1e-6*wantExtra {
		t.Errorf("delta term added %g per run, want %g", got, wantExtra)
	}
	// The term is independent of the region count: doubling the regions at
	// fixed geometry would change it only through the range count, never
	// through a regions× factor — that is the inversion's whole point. Pin
	// this by checking the per-row cost stays far below one ACT lookup.
	if perRow := wantExtra / float64(withDelta.DeltaPoints); perRow >= m.TrieLookup {
		t.Errorf("inverted delta row costs %g, not cheaper than an ACT lookup %g", perRow, m.TrieLookup)
	}
	// The delta term is per-run, never build: a cached cover changes nothing.
	withDelta.CachedBuild = map[Strategy]bool{StrategyPointIdx: true}
	if c := m.Estimate(withDelta, StrategyPointIdx); c.PerRun != dirty.PerRun || c.Build != 0 {
		t.Error("cached build altered the delta per-run term")
	}

	if p := m.Choose(base); p.Strategy != StrategyPointIdx || p.DeltaFraction != 0 {
		t.Fatalf("clean resident plan: %v fraction %g", p.Strategy, p.DeltaFraction)
	}
	// A threshold-sized delta (20% of the base): under the old regions ×
	// delta model its scan alone would have cost 200k × 200 × DeltaProbe =
	// 600ms/run — far beyond every streaming strategy — and tipped the plan.
	// Inverted, the searches cost ~4ms/run and the point index stays chosen.
	ingest := base
	ingest.DeltaPoints = base.NumPoints / 5
	p := m.Choose(ingest)
	if p.Strategy != StrategyPointIdx {
		t.Errorf("planner abandoned pointidx under a 20%% delta despite the inverted join (costs %v)", p.Costs)
	}
	// A fully bloated delta may legitimately tip (the range term plus a
	// point-count-sized search term can lose to a raster pass), but the debt
	// must be surfaced either way.
	bloated := base
	bloated.DeltaPoints = base.NumPoints
	p = m.Choose(bloated)
	if p.DeltaFraction != 1 {
		t.Errorf("delta fraction %g, want 1", p.DeltaFraction)
	}
	if out := p.Explain(); !strings.Contains(out, "delta: 100.0%") {
		t.Errorf("Explain omits the delta line:\n%s", out)
	}
	// Ad-hoc queries never carry the term or the line.
	adhoc := bloated
	adhoc.ResidentPoints = false
	if p := m.Choose(adhoc); p.DeltaFraction != 0 || strings.Contains(p.Explain(), "delta:") {
		t.Error("ad-hoc plan leaked the delta term")
	}
}

// TestPointIdxChargesOnlyWhatTheJoinerOwes pins the planner's view of a warm
// joiner: rows already inverted are not charged again, a held base fold
// drops the probe term, a fully warm run costs nothing — and none of it
// hides the un-compacted tail from the plan's delta fraction.
func TestPointIdxChargesOnlyWhatTheJoinerOwes(t *testing.T) {
	regions := data.Regions(data.Census(3, 200))
	m := DefaultCostModel()
	cold := Query{NumPoints: 1_000_000, Regions: regions, Bound: 16, ResidentPoints: true, DeltaPoints: 60_000}
	clean := cold
	clean.DeltaPoints = 0
	probe := m.Estimate(clean, StrategyPointIdx).PerRun
	full := m.Estimate(cold, StrategyPointIdx).PerRun

	suffix := cold
	suffix.DeltaInverted = 56_000
	perRow := (full - probe) / float64(cold.DeltaPoints)
	if got, want := m.Estimate(suffix, StrategyPointIdx).PerRun, probe+4_000*perRow; math.Abs(got-want) > 1e-9*want {
		t.Errorf("a 4k-row suffix costs %g per run, want probe + 4k rows = %g", got, want)
	}
	suffix.BaseFolded = true
	if got, want := m.Estimate(suffix, StrategyPointIdx).PerRun, 4_000*perRow; math.Abs(got-want) > 1e-9*want {
		t.Errorf("with the base folded the suffix costs %g per run, want %g", got, want)
	}
	warm := suffix
	warm.DeltaInverted = warm.DeltaPoints
	if got := m.Estimate(warm, StrategyPointIdx).PerRun; got != 0 {
		t.Errorf("a fully warm run costs %g, want 0", got)
	}
	if p := m.Choose(warm); p.DeltaFraction == 0 || !strings.Contains(p.Explain(), "delta:") {
		t.Error("a warm joiner hid the un-compacted tail from the plan")
	}
}

// TestExplainCoverPlanLine pins the cover-plan rendering: plans carrying
// measured CoverStats print the line, estimate-only plans never do.
func TestExplainCoverPlanLine(t *testing.T) {
	m := DefaultCostModel()
	regions := data.Regions(data.Census(3, 50))
	p := m.Choose(Query{NumPoints: 100_000, Regions: regions, Bound: 16, Repetitions: 1000, ResidentPoints: true})
	if strings.Contains(p.Explain(), "cover-plan:") {
		t.Error("Explain invented a cover-plan line without measured stats")
	}
	p.Cover = CoverStats{Ranges: 1200, Unique: 900, Boundaries: 1500}
	out := p.Explain()
	if !strings.Contains(out, "cover-plan: 1200 region-ranges → 900 unique, 1500 boundary probes per query") {
		t.Errorf("cover-plan line drifted:\n%s", out)
	}
}

// TestChooseIntoReusesMaps pins the allocation-free planning contract:
// ChooseInto must reuse a caller-retained Costs map and fully reset the
// plan between uses.
func TestChooseIntoReusesMaps(t *testing.T) {
	m := DefaultCostModel()
	regions := data.Regions(data.Census(3, 50))
	var p Plan
	m.ChooseInto(Query{NumPoints: 1000, Regions: regions, Bound: 16, ResidentPoints: true, DeltaPoints: 500}, &p)
	if p.DeltaFraction == 0 || len(p.Costs) == 0 {
		t.Fatalf("first plan incomplete: %+v", p)
	}
	costs := p.Costs
	p.Cover = CoverStats{Ranges: 1}
	m.ChooseInto(Query{NumPoints: 1000, Regions: regions, Bound: 0}, &p)
	if len(costs) != 1 || len(p.Costs) != 1 {
		t.Errorf("exact replan did not reuse and clear the retained map (%d rows, alias %d)",
			len(p.Costs), len(costs))
	}
	if p.DeltaFraction != 0 || p.Cover != (CoverStats{}) || p.Strategy != StrategyExact {
		t.Errorf("replan did not reset the plan: %+v", p)
	}
	st := statsOf(regions)
	if allocs := testing.AllocsPerRun(100, func() {
		m.ChooseInto(Query{NumPoints: 1000, Regions: regions, Bound: 16, ResidentPoints: true, Stats: &st}, &p)
	}); allocs > 0 {
		t.Errorf("warm ChooseInto allocates %.1f times per plan", allocs)
	}
}

func TestStatsOf(t *testing.T) {
	regions := data.Regions(data.Census(1, 50))
	st := statsOf(regions)
	if st.count != 50 || st.meanVertices < 10 || st.totalPerim <= 0 {
		t.Errorf("stats implausible: %+v", st)
	}
	if !st.extent.ContainsRect(regions[0].Bounds()) {
		t.Error("extent does not cover regions")
	}
}
