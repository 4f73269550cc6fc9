package join

import (
	"context"
	"testing"

	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/pointstore"
	"distbound/internal/raster"
	"distbound/internal/sfc"
)

// checkPlanMatchesPerRegion compares the cover-plan execution against the
// per-region reference bit-for-bit across all aggregates and worker counts.
// Weights must be reassociation-proof (integers / exact dyadics): the two
// executions associate the delta tail's float sums differently by design,
// and exact weights make that difference invisible iff the selected points
// agree — which is exactly what the test must pin.
func checkPlanMatchesPerRegion(t *testing.T, label string, pj *PointIdxJoiner, ref [][]raster.PosRange, aggs []Agg) {
	t.Helper()
	ctx := context.Background()
	want := aggregatePerRegion(pj.src.Snapshot(), ref, aggs)
	for _, workers := range []int{1, 3, 16} {
		got, err := residentAggregate(ctx, pj, aggs, workers)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, workers, err)
		}
		for k := range aggs {
			bitIdentical(t, label+" "+aggs[k].String(), want[k], got[k])
		}
	}
}

// leafCenter returns a point in the middle of the leaf cell at curve
// position pos — the coordinate that linearizes back to exactly pos, which
// is how the tests below land delta points on precise range boundaries.
func leafCenter(d sfc.Domain, c sfc.Curve, pos uint64) geom.Point {
	return d.CellIDRect(c, sfc.FromPosLevel(pos, sfc.MaxLevel)).Center()
}

// TestCoverPlanDeltaOnRangeBoundaries pins the inverted delta join on its
// adversarial inputs: delta points whose keys land exactly on cover-range
// Lo and Hi boundaries (the binary search's edge cells), delta rows
// tombstoned again before compaction, and base tombstones — all must
// produce results bit-identical to the per-region reference execution.
func TestCoverPlanDeltaOnRangeBoundaries(t *testing.T) {
	pts, _ := data.TaxiPoints(41, 8000)
	weights := make([]float64, len(pts))
	for i := range weights {
		weights[i] = float64(1 + i%53)
	}
	regions := data.Regions(data.Partition(42, 4, 4, 6))
	d, c := data.CityDomain(), sfc.Hilbert{}
	store, err := pointstore.NewMutable(pts, weights, d, c)
	if err != nil {
		t.Fatal(err)
	}
	const bound = 24.0
	pj, err := NewPointIdxJoiner(regions, store, bound, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := refCovers(regions, pj, bound)
	allAggs := []Agg{Count, Sum, Avg, Min, Max}

	// Land one delta point exactly on every 16th range's Lo and Hi key
	// (bounded count so the test stays fast), with distinct weights so a
	// mis-credited region would show up in SUM and MIN/MAX, not just COUNT.
	var bPts []geom.Point
	var bWs []float64
	for _, ranges := range ref {
		for u := 0; u < len(ranges); u += 16 {
			for _, pos := range []uint64{ranges[u].Lo, ranges[u].Hi} {
				p := leafCenter(d, c, pos)
				if got, ok := d.LeafPos(c, p); !ok || got != pos {
					t.Fatalf("leaf center of pos %d linearizes to %d (ok=%v)", pos, got, ok)
				}
				bPts = append(bPts, p)
				bWs = append(bWs, float64(2+len(bPts)%31))
			}
		}
	}
	if len(bPts) == 0 {
		t.Fatal("no boundary points constructed")
	}
	ids, err := store.Append(bPts, bWs)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanMatchesPerRegion(t, "boundary-delta", pj, ref, allAggs)

	// Tombstone every third boundary row (dead delta rows must be skipped by
	// the inversion exactly as the brute scan skips them) and a few base
	// rows (spans must subtract them before the per-range values are shared).
	var dead []uint64
	for i := 0; i < len(ids); i += 3 {
		dead = append(dead, ids[i])
	}
	dead = append(dead, 0, 7, 4242)
	store.Delete(dead...)
	checkPlanMatchesPerRegion(t, "tombstoned-delta", pj, ref, allAggs)

	// Compaction folds everything into the base; both executions converge on
	// the pure-span path.
	store.Compact()
	checkPlanMatchesPerRegion(t, "post-compaction", pj, ref, allAggs)
}

// TestCoverPlanSparseRegions drives the inversion where most delta rows hit
// no range at all (the miss path of the binary search + walk-back) and the
// uncovered gaps between sparse regions are large: a handful of small,
// disjoint query rectangles over a point cloud spanning the whole domain.
func TestCoverPlanSparseRegions(t *testing.T) {
	pts, _ := data.TaxiPoints(43, 6000)
	weights := make([]float64, len(pts))
	for i := range weights {
		weights[i] = float64(-20 + i%41)
	}
	d, c := data.CityDomain(), sfc.Hilbert{}
	b := d.Bounds()
	mk := func(fx, fy, fw, fh float64) geom.Region {
		x0, y0 := b.Min.X+fx*b.Width(), b.Min.Y+fy*b.Height()
		poly, err := geom.NewPolygon(geom.Ring{
			geom.Pt(x0, y0), geom.Pt(x0+fw*b.Width(), y0),
			geom.Pt(x0+fw*b.Width(), y0+fh*b.Height()), geom.Pt(x0, y0+fh*b.Height()),
		})
		if err != nil {
			t.Fatal(err)
		}
		return poly
	}
	regions := []geom.Region{
		mk(0.05, 0.05, 0.04, 0.03),
		mk(0.60, 0.20, 0.02, 0.06),
		mk(0.30, 0.75, 0.05, 0.05),
	}
	store, err := pointstore.NewMutable(pts[:3000], weights[:3000], d, c)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := NewPointIdxJoiner(regions, store, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The whole second half of the pool lands in the delta tail; most of it
	// falls outside every cover.
	if _, err := store.Append(pts[3000:], weights[3000:]); err != nil {
		t.Fatal(err)
	}
	allAggs := []Agg{Count, Sum, Avg, Min, Max}
	checkPlanMatchesPerRegion(t, "sparse-regions", pj, refCovers(regions, pj, 16), allAggs)

	// The shared probes must agree with ground truth too, not only with the
	// reference execution: counts can only overcount within the bound.
	got, err := residentAggregate(context.Background(), pj, []Agg{Count}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ps := PointSet{Pts: pts, Weights: weights}
	exact, err := BruteForce(ps, regions, Count)
	if err != nil {
		t.Fatal(err)
	}
	for ri, rg := range regions {
		if got[0].Counts[ri] < exact.Counts[ri] {
			t.Errorf("region %d: plan count %d undercounts exact %d", ri, got[0].Counts[ri], exact.Counts[ri])
		}
		var within int64
		for _, p := range ps.Pts {
			if rg.ContainsPoint(p) || rg.BoundaryDist(p) <= 16 {
				within++
			}
		}
		if got[0].Counts[ri] > within {
			t.Errorf("region %d: plan count %d exceeds the %d points within the bound", ri, got[0].Counts[ri], within)
		}
	}
}

// TestCoverPlanStats pins the plan-shape accounting: every range needs at
// most two boundary probes, and probe stats report the
// work a query did — not the size of what it answered from.
func TestCoverPlanStats(t *testing.T) {
	_, regions, store := pointIdxFixture(t, 5000, true)
	pj, err := NewPointIdxJoiner(regions, store, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	u, nb := pj.NumRanges(), len(pj.plan.bkeys)
	if nb == 0 || nb > 2*u {
		t.Errorf("boundary probes %d outside (0, %d]", nb, 2*u)
	}
	if pj.CoverSet.MemoryBytes() <= 8*(u+nb) {
		t.Error("CoverSet.MemoryBytes does not account for the stab lists")
	}
	if pj.MemoryBytes() != 0 {
		t.Errorf("an unqueried joiner reports %d B of state; the shared set must not be charged to it", pj.MemoryBytes())
	}
	results := NewResults([]Agg{Count}, len(regions))
	stats, err := pj.AggregateMultiInto(context.Background(), []Agg{Count}, 1, results)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RangesProbed != u || stats.DeltaProbed != 0 {
		t.Errorf("first-query probe stats {%d %d}, want {%d 0}: the fill probes every range", stats.RangesProbed, stats.DeltaProbed, u)
	}
	// Live delta rows are probed once, when a query first sees them; dead
	// ones are not.
	ids, err := store.Append([]geom.Point{geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 3)}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	store.Delete(ids[1])
	stats, err = pj.AggregateMultiInto(context.Background(), []Agg{Count}, 1, results)
	if err != nil {
		t.Fatal(err)
	}
	if stats != (ProbeStats{DeltaProbed: 2}) {
		t.Errorf("probe stats %+v, want {0 2}: base partials reused, dead rows skipped", stats)
	}
	stats, err = pj.AggregateMultiInto(context.Background(), []Agg{Count}, 1, results)
	if err != nil {
		t.Fatal(err)
	}
	if stats != (ProbeStats{}) {
		t.Errorf("repeat probe stats %+v, want no work", stats)
	}
}

// TestSplitWeightedViaPlan sanity-checks the weighted partitioning at the
// point of use: with one region carrying a cover far larger than the rest,
// the fold shards must isolate it rather than pairing it with an equal
// count of siblings.
func TestCoverPlanWeightedFoldIsolation(t *testing.T) {
	pts, _ := data.TaxiPoints(44, 4000)
	d, c := data.CityDomain(), sfc.Hilbert{}
	b := d.Bounds()
	mk := func(fx, fy, fw, fh float64) geom.Region {
		x0, y0 := b.Min.X+fx*b.Width(), b.Min.Y+fy*b.Height()
		poly, err := geom.NewPolygon(geom.Ring{
			geom.Pt(x0, y0), geom.Pt(x0+fw*b.Width(), y0),
			geom.Pt(x0+fw*b.Width(), y0+fh*b.Height()), geom.Pt(x0, y0+fh*b.Height()),
		})
		if err != nil {
			t.Fatal(err)
		}
		return poly
	}
	// Region 0 covers most of the domain; 1..6 are tiny.
	regions := []geom.Region{mk(0.02, 0.02, 0.9, 0.9)}
	for i := 0; i < 6; i++ {
		regions = append(regions, mk(0.1+0.13*float64(i), 0.94, 0.02, 0.02))
	}
	store, err := pointstore.NewMutable(pts, nil, d, c)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := NewPointIdxJoiner(regions, store, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	big := pj.plan.regOff[1] - pj.plan.regOff[0]
	var rest int32
	for ri := 1; ri < len(regions); ri++ {
		rest += pj.plan.regOff[ri+1] - pj.plan.regOff[ri]
	}
	if big < 4*rest {
		t.Skipf("fixture not skewed enough (big %d vs rest %d)", big, rest)
	}
	// Results must still be correct (and identical to the reference) under
	// the weighted sharding.
	checkPlanMatchesPerRegion(t, "weighted-fold", pj, refCovers(regions, pj, 32), []Agg{Count})
}

// TestResolvedSpansIncrementalMaintenance pins the sharing contract of the
// span resolution the base partials carry: fills against one base store —
// under appends, deletes and the weight pass, which never move base rows —
// reuse one resolution; a compaction's new base forces exactly one
// re-resolution, reusing the cover table by identity; a read of a snapshot
// the compaction superseded answers the published state without a fill, so
// it cannot disturb the current base's spans; and results stay bit-identical
// to the reference execution throughout.
func TestResolvedSpansIncrementalMaintenance(t *testing.T) {
	pts, _ := data.TaxiPoints(31, 8000)
	// Integer weights: the two executions associate the delta tail's float
	// sums differently by design, and exact weights keep that invisible.
	weights := make([]float64, len(pts))
	for i := range weights {
		weights[i] = float64(1 + i%37)
	}
	ps := PointSet{Pts: pts, Weights: weights}
	regions := data.Regions(data.Partition(32, 4, 4, 6))
	store, err := pointstore.NewMutable(pts, weights, data.CityDomain(), sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	pj, err := NewPointIdxJoiner(regions, store, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pj.state.Load() != nil {
		t.Fatal("construction resolved spans before any query")
	}
	// spans identifies the published resolution by its first element.
	spans := func() *int32 { return &pj.state.Load().spanLo[0] }
	ctx := context.Background()
	ref := refCovers(regions, pj, 16)
	aggs := []Agg{Count, Sum, Min, Max}
	if _, err := residentAggregate(ctx, pj, []Agg{Count}, 1); err != nil {
		t.Fatal(err)
	}
	rs1 := spans()
	if pj.state.Load().snap.BaseStore() != store.Snapshot().BaseStore() {
		t.Fatal("published resolution names a foreign base")
	}
	checkPlanMatchesPerRegion(t, "weight-pass", pj, ref, aggs)
	if spans() != rs1 {
		t.Fatal("the weight pass re-resolved spans")
	}

	// Mutations that keep the base: the resolution must survive untouched.
	ids, err := store.Append(ps.Pts[:500], ps.Weights[:500])
	if err != nil {
		t.Fatal(err)
	}
	store.Delete(ids[:100]...)
	store.Delete(3, 5, 7)
	checkPlanMatchesPerRegion(t, "mutated-same-base", pj, ref, aggs)
	if spans() != rs1 {
		t.Fatal("append/delete re-resolved spans; only a base change should")
	}

	plan := pj.plan
	old := store.Snapshot()
	store.Compact()
	checkPlanMatchesPerRegion(t, "post-compaction", pj, ref, aggs)
	rs2 := spans()
	if rs2 == rs1 {
		t.Fatal("compaction did not refresh the span resolution")
	}
	if pj.state.Load().snap.BaseStore() != store.Snapshot().BaseStore() {
		t.Fatal("refreshed resolution names a stale base")
	}
	if pj.plan != plan {
		t.Fatal("compaction rebuilt the cover plan; maintenance must be incremental")
	}
	// A reader still on the pre-compaction snapshot answers the published
	// later state and fills nothing, so a delete on the current base then
	// refills from the current base's spans.
	if _, work, err := pj.stateAt(ctx, old, weightsAsked(aggs), 1); err != nil || work != (ProbeStats{}) {
		t.Fatalf("a read of the superseded snapshot did %+v (err %v), want no work", work, err)
	}
	if spans() != rs2 {
		t.Fatal("a read of a superseded snapshot replaced the current base's spans")
	}
	store.Delete(11)
	checkPlanMatchesPerRegion(t, "deleted-after-stale-read", pj, ref, aggs)
	if spans() != rs2 {
		t.Fatal("a delete after a stale read re-resolved the current base")
	}
	// The steady state after the refresh shares again.
	if _, err := residentAggregate(ctx, pj, aggs, 1); err != nil {
		t.Fatal(err)
	}
	if spans() != rs2 {
		t.Fatal("post-compaction queries keep re-resolving")
	}
}

// BenchmarkCoverPlanRebuild is the incremental-maintenance acceptance
// benchmark: what the first query after a compaction pays. "refresh" is the
// incremental step — re-resolving span boundaries against the new base,
// reusing the table verbatim; "fromscratch" rebuilds the table from the
// per-region covers and then resolves, which is what a non-incremental
// design would owe. The acceptance criterion is refresh ≥ 2× faster.
func BenchmarkCoverPlanRebuild(b *testing.B) {
	pts, weights := data.TaxiPoints(31, 100_000)
	regions := data.Regions(data.Partition(32, 8, 8, 6))
	store, err := pointstore.NewMutable(pts, weights, data.CityDomain(), sfc.Hilbert{})
	if err != nil {
		b.Fatal(err)
	}
	pj, err := NewPointIdxJoiner(regions, store, 16, 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	snap := store.Snapshot()
	covers := refCovers(regions, pj, 16)

	b.Run("refresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := pj.plan.resolve(ctx, snap, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fromscratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan := buildCoverPlan(coversOf(covers))
			if len(plan.ranges) != len(pj.plan.ranges) {
				b.Fatal("rebuilt plan diverged")
			}
			if _, _, err := pj.plan.resolve(ctx, snap, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
