package distbound

import (
	"context"
	"fmt"
	"testing"

	"distbound/internal/data"
)

// explainFixture pins every input of the cost model but its constants: a
// deterministic region set and a fixed dataset size, planned on the default
// model — so the rendered plan text is stable and reviewable, and a change
// to the default constants shows here.
func explainFixture(t *testing.T) (*Engine, *Dataset) {
	t.Helper()
	pts, weights := data.TaxiPoints(81, 50_000)
	e := NewEngine(dataRegions(82, 4, 4, 8))
	ds, err := e.RegisterPoints("taxi", pts, weights)
	if err != nil {
		t.Fatal(err)
	}
	ds.SetCompactionThreshold(0)
	return e, ds
}

// TestExplainGolden pins the ad-hoc plan rendering: any change to the text —
// a new strategy row, a cost-model tweak, a formatting change — must be
// reviewed here, not discovered by downstream parsers.
func TestExplainGolden(t *testing.T) {
	e, _ := explainFixture(t)
	got := e.planOnly(adHoc(50_000, Count, 16), 10).Explain()
	const want = `* exact      build=0.0ms run=23.6ms total=236.4ms
  act        build=211.1ms run=22.5ms total=436.1ms
  brj        build=54.2ms run=139.7ms total=1451.4ms`
	if got != want {
		t.Errorf("Explain drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestResponseExplainGolden pins the Request/Response explain path: a
// Request with Explain set renders exactly the plan comparison planning
// alone produces for the same query, and a multi-aggregate set containing an
// extreme drops the BRJ row from the comparison entirely.
func TestResponseExplainGolden(t *testing.T) {
	e, ds := explainFixture(t)
	pts, ws := ds.Points()
	ps := PointSet{Pts: pts, Weights: ws}

	resp, err := e.Do(context.Background(), Request{
		Points: ps, Aggs: []Agg{Count}, Bound: 16, Repetitions: 10, Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := e.planOnly(adHoc(len(pts), Count, 16), 10).Explain(); resp.Explain != want {
		t.Errorf("Response.Explain drifted from the plan-only rendering:\n--- got ---\n%s\n--- want ---\n%s",
			resp.Explain, want)
	}

	// A set containing MIN excludes BRJ for the whole request — the plan
	// comparison must not even list it.
	resp, err = e.Do(context.Background(), Request{
		Points: ps, Aggs: []Agg{Count, Min}, Bound: 16, Repetitions: 10, Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const wantExtremeSet = `* exact      build=0.0ms run=23.6ms total=236.4ms
  act        build=211.1ms run=22.5ms total=436.1ms`
	if resp.Explain != wantExtremeSet {
		t.Errorf("multi-agg Response.Explain drifted:\n--- got ---\n%s\n--- want ---\n%s",
			resp.Explain, wantExtremeSet)
	}
}

// TestExplainDatasetGolden pins the resident plan rendering: one rule line,
// whatever the dataset's state — there is no comparison to render — plus the
// measured cover-plan line once the bound's cover set is resident.
func TestExplainDatasetGolden(t *testing.T) {
	e, ds := explainFixture(t)
	explain := func(bound float64) string {
		return e.planOnly(Request{Dataset: ds, Aggs: []Agg{Count}, Bound: bound, Explain: true}, 10).Explain()
	}
	const wantRule = `* pointidx   rule: registered dataset, bound > 0`
	if got := explain(16); got != wantRule {
		t.Errorf("cold dataset Explain drifted:\n--- got ---\n%s\n--- want ---\n%s", got, wantRule)
	}
	if got, want := explain(0), `* exact      rule: registered dataset, no positive bound`; got != want {
		t.Errorf("bound-0 dataset Explain drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// A 12.5k-row delta changes nothing: the rule does not read the store.
	pts, ws := ds.Points()
	if _, err := ds.Append(pts[:12_500], ws[:12_500]); err != nil {
		t.Fatal(err)
	}
	if got := explain(16); got != wantRule {
		t.Errorf("dataset Explain under a delta drifted:\n--- got ---\n%s\n--- want ---\n%s", got, wantRule)
	}

	// Running the request builds the cover set; Explain then reports its
	// measured shape.
	resp, err := e.Do(context.Background(), Request{Dataset: ds, Aggs: []Agg{Count}, Bound: 16, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Strategy != StrategyPointIdx || resp.Explain != wantRule {
		t.Errorf("cold Do ran %v and explained\n%s", resp.Strategy, resp.Explain)
	}
	cs, ok := e.covers.PeekReady(16)
	if !ok {
		t.Fatal("the pointidx run left no cover set resident")
	}
	want := fmt.Sprintf("%s\ncover-plan: %d region-ranges, %d boundary probes per query",
		wantRule, cs.set.NumRanges(), cs.set.NumBoundaryProbes())
	if got := explain(16); got != want {
		t.Errorf("warm dataset Explain drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	// Off the Explain path the plan carries no cover stats: the hot path
	// never peeks.
	if p := e.planOnly(Request{Dataset: ds, Aggs: []Agg{Count}, Bound: 16}, 1); p.Cover.Ranges != 0 || len(p.Costs) != 0 {
		t.Errorf("unexplained dataset plan carries %+v", p)
	}
}
