package distbound

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"distbound/internal/data"
	"distbound/internal/join"
	"distbound/internal/testutil"
)

func residentFixture(t *testing.T, n int) (*Engine, *Dataset, PointSet, []Region) {
	t.Helper()
	pts, weights := data.TaxiPoints(51, n)
	regions := dataRegions(52, 5, 5, 40)
	e := NewEngine(regions)
	ds, err := e.RegisterPoints("taxi", pts, weights)
	if err != nil {
		t.Fatal(err)
	}
	return e, ds, PointSet{Pts: pts, Weights: weights}, regions
}

func TestRegisterPoints(t *testing.T) {
	e, ds, _, _ := residentFixture(t, 5000)
	if ds.Len() != 5000 || ds.MemoryBytes() <= 0 {
		t.Error("dataset accounting wrong")
	}
	if ds.Dropped() != 0 {
		t.Errorf("%d in-domain points dropped", ds.Dropped())
	}
	if _, err := e.RegisterPoints("taxi", nil, nil); err == nil {
		t.Error("duplicate registration accepted")
	}
	if _, err := e.RegisterPoints("", nil, nil); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := e.RegisterPoints("bad", []Point{Pt(0, 0)}, []float64{1, 2}); err == nil {
		t.Error("mismatched weight column accepted")
	}
}

// TestUnregisterPoints: the name frees up, old handles die, and a
// same-named successor dataset gets a fresh joiner over the shared cover set
// — never the predecessor's state (joiners are keyed by store identity, not
// name).
func TestUnregisterPoints(t *testing.T) {
	e, ds, ps, _ := residentFixture(t, 200_000)
	// Warm a cover artifact for the first dataset.
	ctx := context.Background()
	resp, err := e.Do(ctx, Request{Dataset: ds, Aggs: []Agg{Count}, Bound: 16})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != StrategyPointIdx {
		t.Skipf("fixture planned %v; lifecycle check needs pointidx", resp.Strategy)
	}
	first := resp.Results[0]
	if !e.UnregisterPoints("taxi") {
		t.Fatal("unregister reported no dataset")
	}
	if e.UnregisterPoints("taxi") {
		t.Error("double unregister reported a dataset")
	}
	if _, err := e.Do(ctx, Request{Dataset: ds, Aggs: []Agg{Count}, Bound: 16}); err == nil {
		t.Error("stale handle accepted after unregister")
	}
	// Re-register the same name with HALF the points: results must reflect
	// the new store, not the predecessor's cached covers+store.
	half := len(ps.Pts) / 2
	ds2, err := e.RegisterPoints("taxi", ps.Pts[:half], ps.Weights[:half])
	if err != nil {
		t.Fatal(err)
	}
	resp, err = e.Do(ctx, Request{Dataset: ds2, Aggs: []Agg{Count}, Bound: 16})
	if err != nil {
		t.Fatal(err)
	}
	second := resp.Results[0]
	var totFirst, totSecond int64
	for ri := range first.Counts {
		totFirst += first.Counts[ri]
		totSecond += second.Counts[ri]
	}
	if totSecond >= totFirst {
		t.Errorf("successor dataset (half the points) counted %d ≥ predecessor %d: stale store served",
			totSecond, totFirst)
	}
}

// TestAggregateDatasetRejectsForeignHandle: a handle registered with another
// engine is keyed over that engine's domain; Do must refuse it, at a
// positive bound and at the exact arm alike, rather than probe it with this
// engine's covers.
func TestAggregateDatasetRejectsForeignHandle(t *testing.T) {
	_, ds, _, regions := residentFixture(t, 1000)
	other := NewEngine(regions[:4])
	for _, bound := range []float64{16, 0} {
		req := Request{Dataset: ds, Aggs: []Agg{Count}, Bound: bound}
		if _, err := other.Do(context.Background(), req); err == nil {
			t.Errorf("bound %g: Do accepted a foreign dataset handle", bound)
		}
	}
}

// TestResidentPlannerSelectsPointIdx pins the acceptance criterion: for
// COUNT queries over a registered dataset the rule picks the pointidx
// strategy.
func TestResidentPlannerSelectsPointIdx(t *testing.T) {
	_, ds, _, _ := residentFixture(t, 200_000)
	if s := strategyFor(Request{Dataset: ds, Aggs: []Agg{Count}, Bound: 16}); s != StrategyPointIdx {
		t.Errorf("resident COUNT picked %v", s)
	}
	// Exact requirement still forces the exact strategy; the ad-hoc rule is
	// untouched by dataset registration.
	if s := strategyFor(Request{Dataset: ds, Aggs: []Agg{Count}}); s != StrategyExact {
		t.Errorf("bound 0 resident query picked %v", s)
	}
	if s := strategyFor(adHoc(200_000, Count, 16)); s == StrategyPointIdx {
		t.Error("the ad-hoc rule chose the resident strategy")
	}
}

// TestResidentRule pins the one decision taken for a registered dataset: a
// positive bound runs pointidx — cold, warm, under a delta, after a base
// delete, after a compaction, whatever streaming artifacts are resident — and
// anything else runs exact. A forced streaming strategy is still honoured and
// still agrees with pointidx the way the differential suites require, and
// ad-hoc requests beside the dataset still plan by the ad-hoc rule.
func TestResidentRule(t *testing.T) {
	e, ds, ps := requestFixture(t)
	ctx := context.Background()
	const bound = 16.0
	aggs := []Agg{Count, Sum, Min}
	do := func(label string, req Request) Response {
		t.Helper()
		resp, err := e.Do(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return resp
	}
	forced := func(s Strategy, aggs []Agg) Request {
		return Request{Dataset: ds, Aggs: aggs, Bound: bound, Strategy: &s}
	}

	steps := []struct {
		name   string
		mutate func()
	}{
		{"cold", func() {}},
		{"warm", func() {}},
		{"streaming artifacts resident", func() {
			for _, s := range []Strategy{StrategyExact, StrategyACT, StrategyBRJ} {
				do("warming "+s.String(), Request{Points: ps, Aggs: []Agg{Count}, Bound: bound, Strategy: &s})
			}
			if e.exact.Load() == nil || e.masks.Len() != 1 || !coverReady(e, bound) {
				t.Fatal("streaming artifacts not all resident")
			}
		}},
		{"under a delta", func() {
			if _, err := ds.Append(ps.Pts[:3000], ps.Weights[:3000]); err != nil {
				t.Fatal(err)
			}
		}},
		{"after a base delete", func() {
			if n, err := ds.Delete(11, 13, 17); n != 3 || err != nil {
				t.Fatalf("deleted %d (%v)", n, err)
			}
		}},
		{"after Compact", func() {
			if err := ds.Compact(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, step := range steps {
		step.mutate()
		pidx := do(step.name, Request{Dataset: ds, Aggs: aggs, Bound: bound})
		if pidx.Strategy != StrategyPointIdx {
			t.Fatalf("%s: ran %v, want pointidx", step.name, pidx.Strategy)
		}

		// The escape hatch: every streaming strategy, forced, still executes
		// over the same live points. ACT tests the same leaf positions against
		// the same conservative covers, so it matches pointidx bit for bit;
		// exact and BRJ owe it only the ε guarantee.
		pts, ws := ds.Points()
		cls := testutil.Classify(pts, ws, e.regions, bound)
		for k, agg := range aggs {
			cls.Check(t, step.name+" pointidx "+agg.String(), agg, pidx.Results[k])
		}
		for _, s := range []Strategy{StrategyExact, StrategyACT, StrategyBRJ} {
			sAggs := aggs
			if s == StrategyBRJ {
				sAggs = aggs[:2]
			}
			got := do(step.name, forced(s, sAggs))
			if got.Strategy != s {
				t.Fatalf("%s: forced %v ran %v", step.name, s, got.Strategy)
			}
			for k, agg := range sAggs {
				label := step.name + " " + s.String() + " " + agg.String()
				if s == StrategyACT {
					testutil.CheckIdentical(t, label+" vs pointidx", pidx.Results[k], got.Results[k])
				}
				cls.Check(t, label, agg, got.Results[k])
			}
		}
	}

	// No positive bound, no approximation: the rule's other arm.
	pts, ws := ds.Points()
	brute, err := BruteForceJoin(PointSet{Pts: pts, Weights: ws}, e.regions, Count)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []float64{0, -4, math.NaN()} {
		resp := do("exact arm", Request{Dataset: ds, Aggs: []Agg{Count}, Bound: b})
		if resp.Strategy != StrategyExact {
			t.Fatalf("bound %v: ran %v, want exact", b, resp.Strategy)
		}
		testutil.CheckIdentical(t, fmt.Sprintf("bound %v vs brute force", b), brute, resp.Results[0])
	}

	// Ad-hoc requests at a bound the dataset also serves plan by the ad-hoc
	// rule — a MIN-carrying set without BRJ — while the dataset request stays
	// on the resident rule.
	for _, c := range []struct {
		req  Request
		want Strategy
	}{
		{Request{Points: ps, Aggs: []Agg{Count}, Bound: 64}, StrategyBRJ},
		{Request{Dataset: ds, Aggs: []Agg{Count}, Bound: 64}, StrategyPointIdx},
		{Request{Points: ps, Aggs: []Agg{Count, Min}, Bound: 64}, StrategyACT},
	} {
		if r := do("bound 64", c.req); r.Strategy != c.want {
			t.Errorf("%v (dataset target: %v): ran %v, want %v",
				c.req.Aggs, c.req.Dataset != nil, r.Strategy, c.want)
		}
	}
}

// TestAggregateDatasetMatchesStreaming verifies result agreement between the
// resident path and the streaming paths over the same points: bit-identical
// counts and extremes against the ACT join at the same bound, and exact
// equality with the streaming engine result when the bound forces the exact
// plan.
func TestAggregateDatasetMatchesStreaming(t *testing.T) {
	// Large enough that per-range probing beats per-point streaming and the
	// planner picks the resident strategy on its own.
	e, ds, ps, regions := residentFixture(t, 200_000)
	const bound = 16.0

	// Reference ACT result over the same domain: the streaming ACT joiner.
	act, err := join.NewACTJoiner(regions, DomainForRegions(regions...), Hilbert, bound, 0)
	if err != nil {
		t.Fatal(err)
	}

	for _, agg := range []Agg{Count, Sum, Avg, Min, Max} {
		want, err := act.Aggregate(ps, agg)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := e.Do(context.Background(), Request{Dataset: ds, Aggs: []Agg{agg}, Bound: bound})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Strategy != StrategyPointIdx {
			t.Fatalf("%v: resident query ran %v, want pointidx", agg, resp.Strategy)
		}
		res := resp.Results[0]
		for ri := range regions {
			if res.Counts[ri] != want.Counts[ri] {
				t.Fatalf("%v region %d: resident count %d != ACT %d",
					agg, ri, res.Counts[ri], want.Counts[ri])
			}
			switch agg {
			case Min, Max:
				if res.Extremes[ri] != want.Extremes[ri] {
					t.Fatalf("%v region %d: extreme drift", agg, ri)
				}
			}
		}
	}

	// Exact plan on the resident handle streams the original points.
	resp, err := e.Do(context.Background(), Request{Dataset: ds, Aggs: []Agg{Count}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != StrategyExact {
		t.Fatalf("bound 0 ran %v", resp.Strategy)
	}
	res := resp.Results[0]
	brute, _ := BruteForceJoin(ps, regions, Count)
	for ri := range regions {
		if res.Counts[ri] != brute.Counts[ri] {
			t.Fatalf("region %d: exact resident count differs from brute force", ri)
		}
	}
}

// TestAggregateBatchWithDatasets interleaves handle-bearing and ad-hoc
// queries on one engine and checks strategies and cover-cache
// participation.
func TestAggregateBatchWithDatasets(t *testing.T) {
	e, ds, ps, regions := residentFixture(t, 200_000)
	queries := []Request{
		{Dataset: ds, Aggs: []Agg{Count}, Bound: 16},
		{Points: ps, Aggs: []Agg{Count}, Bound: 16},
		{Dataset: ds, Aggs: []Agg{Sum}, Bound: 16},
		{Dataset: ds, Aggs: []Agg{Count}, Bound: 0},
	}
	results := make([]Response, len(queries))
	for i, q := range queries {
		var err error
		if results[i], err = e.Do(context.Background(), q); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if results[0].Strategy != StrategyPointIdx || results[2].Strategy != StrategyPointIdx {
		t.Errorf("resident repeated queries ran %v/%v", results[0].Strategy, results[2].Strategy)
	}
	if results[3].Strategy != StrategyExact {
		t.Errorf("bound-0 dataset query ran %v", results[3].Strategy)
	}
	// The handle-bearing and ad-hoc COUNT queries at the same bound agree
	// bit-identically whenever both run conservative-cover strategies over
	// the same points.
	resp, err := e.Do(context.Background(), queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != StrategyPointIdx {
		t.Fatalf("single resident query ran %v", resp.Strategy)
	}
	single := resp.Results[0]
	for ri := range regions {
		if results[0].Results[0].Counts[ri] != single.Counts[ri] {
			t.Fatalf("region %d: first resident count %d != repeat %d",
				ri, results[0].Results[0].Counts[ri], single.Counts[ri])
		}
	}
	cover := e.CacheStats()
	if cover.Builds == 0 {
		t.Error("resident queries never built a cover artifact")
	}
	if cover.Builds > 1 {
		t.Errorf("cover artifact built %d times for one (dataset, bound)", cover.Builds)
	}
}

// TestResidentConcurrency drives the new engine paths from many goroutines
// with cold caches — concurrent cover builds must deduplicate, and every
// caller must see results identical to a warm sequential run at the level
// that served it (a racing caller may be served by a finer level another one
// built). Run with -race.
func TestResidentConcurrency(t *testing.T) {
	e, ds, ps, _ := residentFixture(t, 200_000)
	bounds := []float64{8, 16, 64}

	// Reference results on a warm engine, by served bound: asked coarse-first,
	// every bound is served at its own level.
	want := map[float64]Result{}
	for i := len(bounds) - 1; i >= 0; i-- {
		b := bounds[i]
		resp, err := e.Do(context.Background(), Request{Dataset: ds, Aggs: []Agg{Count}, Bound: b})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Strategy != StrategyPointIdx {
			t.Skipf("fixture planned %v at bound %g; concurrency check needs pointidx", resp.Strategy, b)
		}
		if resp.ServedBound != ownBound(e, b) {
			t.Fatalf("bound %g served at %g m, not at its own level", b, resp.ServedBound)
		}
		want[resp.ServedBound] = resp.Results[0]
	}

	// Fresh engine so every goroutine races on cold cover builds; also
	// register more datasets concurrently to exercise the registry lock.
	e2 := NewEngine(dataRegions(52, 5, 5, 40))
	ds2, err := e2.RegisterPoints("taxi", ps.Pts, ps.Weights)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%5 == 4 {
				// Interleave registrations with queries.
				if _, err := e2.RegisterPoints(string(rune('a'+g)), ps.Pts[:100], nil); err != nil {
					errs[g] = err
					return
				}
			}
			for i := 0; i < 6; i++ {
				b := bounds[(g+i)%len(bounds)]
				resp, err := e2.Do(context.Background(), Request{Dataset: ds2, Aggs: []Agg{Count}, Bound: b})
				if err != nil {
					errs[g] = err
					return
				}
				ref, ok := want[resp.ServedBound]
				if !ok || resp.ServedBound > b {
					errs[g] = fmt.Errorf("bound %g served at %g m, not at or below it on one of the three levels", b, resp.ServedBound)
					return
				}
				res := resp.Results[0]
				for ri := range res.Counts {
					if res.Counts[ri] != ref.Counts[ri] {
						errs[g] = errDrift
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	cover := e2.CacheStats()
	if int(cover.Builds) > len(bounds) {
		t.Errorf("%d cover builds for %d distinct bounds: singleflight failed", cover.Builds, len(bounds))
	}
}

var errDrift = errDriftType{}

type errDriftType struct{}

func (errDriftType) Error() string {
	return "concurrent resident count drifted from warm sequential run"
}
