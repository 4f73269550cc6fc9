package distbound

import (
	"context"
	"testing"

	"distbound/internal/data"
)

// explainFixture pins every input of the cost model: a deterministic region
// set, a round-number cost model, and a fixed dataset size — so the rendered
// plan text is stable and reviewable.
func explainFixture(t *testing.T) (*Engine, *Dataset) {
	t.Helper()
	pts, weights := data.TaxiPoints(81, 50_000)
	e := NewEngine(dataRegions(82, 4, 4, 8))
	e.SetCostModel(CostModel{
		TrieLookup:     400,
		TrieCellBuild:  1000,
		TreePointQuery: 500,
		PIPPerVertex:   4,
		PixelWrite:     2,
		PointScatter:   20,
		RangeProbe:     100,
		DeltaProbe:     10,
	})
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
	const want = `* exact(R*)  build=0.0ms run=22.3ms total=223.3ms
  act        build=191.9ms run=20.0ms total=391.9ms
  brj        build=43.3ms run=111.9ms total=1161.9ms
cost-model: default`
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
		Dataset: ds, Aggs: []Agg{Count, Min}, Bound: 16, Repetitions: 10, Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const wantExtremeSet = `* exact(R*)  build=0.0ms run=22.3ms total=223.3ms
  pointidx   build=191.9ms run=6.4ms total=255.9ms
  act        build=191.9ms run=20.0ms total=391.9ms
cost-model: default`
	if resp.Explain != wantExtremeSet {
		t.Errorf("multi-agg Response.Explain drifted:\n--- got ---\n%s\n--- want ---\n%s",
			resp.Explain, wantExtremeSet)
	}
}

// TestExplainDatasetGolden pins the resident plan rendering in both states:
// freshly compacted (no delta line) and carrying a delta tail (the
// delta-fraction term must appear and the costs must reflect the scan).
func TestExplainDatasetGolden(t *testing.T) {
	e, ds := explainFixture(t)
	explain := func() string {
		return e.planOnly(Request{Dataset: ds, Aggs: []Agg{Count}, Bound: 16}, 10).Explain()
	}
	got := explain()
	const wantCompact = `* exact(R*)  build=0.0ms run=22.3ms total=223.3ms
  pointidx   build=191.9ms run=6.4ms total=255.9ms
  act        build=191.9ms run=20.0ms total=391.9ms
  brj        build=43.3ms run=111.9ms total=1161.9ms
cost-model: default`
	if got != wantCompact {
		t.Errorf("ExplainDataset (compact) drifted:\n--- got ---\n%s\n--- want ---\n%s", got, wantCompact)
	}

	// A 12.5k-row delta on a 62.5k-point dataset: the pointidx row's per-run
	// cost now includes the delta scan, the ordering flips (pointidx still
	// wins here), and the delta line names the fraction.
	pts, ws := ds.Points()
	ids, err := ds.Append(pts[:12_500], ws[:12_500])
	if err != nil {
		t.Fatal(err)
	}
	got = explain()
	const wantDelta = `* pointidx   build=191.9ms run=8.4ms total=275.8ms
  exact(R*)  build=0.0ms run=27.9ms total=279.2ms
  act        build=191.9ms run=25.0ms total=441.9ms
  brj        build=43.3ms run=112.1ms total=1164.4ms
delta: 20.0% of resident points await compaction (pointidx per-run cost includes the inverted delta join)
cost-model: default`
	if got != wantDelta {
		t.Errorf("ExplainDataset (delta) drifted:\n--- got ---\n%s\n--- want ---\n%s", got, wantDelta)
	}

	// Deleting the appended rows and compacting restores the original
	// rendering exactly: same live points, no delta term.
	if n, err := ds.Delete(ids...); n != 12_500 || err != nil {
		t.Fatalf("deleted %d (%v)", n, err)
	}
	ds.Compact()
	got = explain()
	if got != wantCompact {
		t.Errorf("ExplainDataset after compaction drifted:\n--- got ---\n%s\n--- want ---\n%s", got, wantCompact)
	}
}
