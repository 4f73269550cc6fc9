package join

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/pointstore"
	"distbound/internal/raster"
	"distbound/internal/sfc"
)

// The per-region reference execution: every region independently probes its
// own cover ranges and brute-scans the delta tail. It is the oracle the cover
// table is pinned against — COUNT/MIN/MAX bit-identical, SUM/AVG identical up
// to the delta tail's re-association — so it takes its ranges from the
// rasterizer, never from the table it checks.

// rasterCovers rasterizes every region to its merged leaf ranges.
func rasterCovers(regions []geom.Region, d sfc.Domain, c sfc.Curve, eps float64, mode raster.Mode) [][]raster.PosRange {
	covers := make([][]raster.PosRange, len(regions))
	for ri, rg := range regions {
		a, err := raster.Hierarchical(rg, d, c, eps, mode)
		if err != nil {
			panic(err)
		}
		covers[ri] = a.Ranges()
	}
	return covers
}

// coversOf holds per-region range lists as the set descent's covers, one
// piece a region.
func coversOf(covers [][]raster.PosRange) []raster.Cover {
	out := make([]raster.Cover, len(covers))
	for ri, rs := range covers {
		if len(rs) > 0 {
			out[ri] = raster.Cover{rs}
		}
	}
	return out
}

// refCovers rasterizes the regions the way NewCoverSetCtx does at the bound
// eps's level, over the joiner's own domain and curve.
func refCovers(regions []geom.Region, j *PointIdxJoiner, eps float64) [][]raster.PosRange {
	return rasterCovers(regions, j.src.Domain(), j.src.Curve(), eps, raster.Conservative)
}

// levelOf is raster.BoundLevel for a bound a cover can meet.
func levelOf(d sfc.Domain, eps float64) int {
	level, err := raster.BoundLevel(d, eps)
	if err != nil {
		panic(err)
	}
	return level
}

// aggregatePerRegion answers aggs over snap from the per-region covers.
func aggregatePerRegion(snap *pointstore.Snapshot, covers [][]raster.PosRange, aggs []Agg) []Result {
	a := newAcc(needsOf(aggs), len(covers))
	for ri := range covers {
		aggregateRegion(snap, &a, covers[ri], ri)
	}
	results := NewResults(aggs, len(covers))
	a.writeTo(results, nil)
	return results
}

// aggregateRegion folds the snapshot's base range aggregates over one
// region's cover ranges and brute-scans the delta tail against them, into
// that region's slot of every column a holds.
func aggregateRegion(snap *pointstore.Snapshot, a *acc, ranges []raster.PosRange, ri int) {
	keys := snap.BaseColumns().Keys
	for _, r := range ranges {
		lo := sort.Search(len(keys), func(i int) bool { return keys[i] >= r.Lo })
		hi := sort.Search(len(keys), func(i int) bool { return keys[i] > r.Hi })
		if lo >= hi {
			continue
		}
		a.counts[ri] += int64(snap.CountSpan(lo, hi))
		if a.sums != nil {
			a.sums[ri] += snap.SumSpan(lo, hi)
		}
		if a.mins != nil {
			a.mins[ri] = math.Min(a.mins[ri], snap.MinSpan(lo, hi))
		}
		if a.maxs != nil {
			a.maxs[ri] = math.Max(a.maxs[ri], snap.MaxSpan(lo, hi))
		}
	}
	// Delta scan: every live delta row whose key falls in one of the
	// region's cover ranges contributes exactly as a base row would.
	for k, dn := 0, snap.DeltaLen(); k < dn; k++ {
		if !snap.DeltaLive(k) || !coversKey(ranges, snap.DeltaKey(k)) {
			continue
		}
		a.counts[ri]++
		if a.sums != nil {
			a.sums[ri] += snap.DeltaWeight(k)
		}
		if a.mins != nil {
			a.mins[ri] = math.Min(a.mins[ri], snap.DeltaWeight(k))
		}
		if a.maxs != nil {
			a.maxs[ri] = math.Max(a.maxs[ri], snap.DeltaWeight(k))
		}
	}
}

// coversKey reports whether a leaf key falls in one of the merged, sorted
// cover ranges — binary search, mirroring Approximation.CoversLeafPos.
func coversKey(ranges []raster.PosRange, key uint64) bool {
	i := sort.Search(len(ranges), func(i int) bool { return ranges[i].Hi >= key })
	return i < len(ranges) && ranges[i].Lo <= key
}

// dropPartials discards the published state, so the next query recomputes
// it from nothing — the re-execution the incremental state is differentially
// tested against, and what a benchmark comparing cold and warm executions
// must time.
func (j *PointIdxJoiner) dropPartials() {
	j.state.Store(nil)
}

// aggregateSnapshot is a read pinned to snap, as the differential suites ask
// it of a shared joiner and of a private sibling. It writes the answer of the
// state stateAt returns — the published one, or the one its advance published
// — when that state is snap's own, for the caller to check. When a writer
// committed after snap, that state answers a later snapshot: it is checked
// here, bit for bit, against its own snapshot computed from nothing, and a
// divergence is the returned error; snap's answer is then computed from
// nothing and published nowhere. The returned work is stateAt's.
func (j *PointIdxJoiner) aggregateSnapshot(ctx context.Context, snap *pointstore.Snapshot, weights bool, workers int, results []Result) (ProbeStats, error) {
	st, stats, err := j.stateAt(ctx, snap, weights, workers)
	if err != nil {
		return ProbeStats{}, err
	}
	st.base.writeTo(results, &st.delta)
	if st.snap.Epoch() == snap.Epoch() {
		return stats, nil
	}
	if err := j.sameAsRecomputed(ctx, st.snap, weights, results); err != nil {
		return ProbeStats{}, fmt.Errorf("published state at epoch %d: %w", st.snap.Epoch(), err)
	}
	if st, _, err = j.next(ctx, nil, snap, weights, workers); err != nil {
		return ProbeStats{}, err
	}
	st.base.writeTo(results, &st.delta)
	return stats, nil
}

// sameAsRecomputed reports, as an error, the first slot where got differs
// bitwise from snap's state computed from nothing.
func (j *PointIdxJoiner) sameAsRecomputed(ctx context.Context, snap *pointstore.Snapshot, weights bool, got []Result) error {
	st, _, err := j.next(ctx, nil, snap, weights, 1)
	if err != nil {
		return err
	}
	want := make([]Result, len(got))
	for k := range got {
		want[k] = newResult(got[k].Agg, len(got[k].Counts))
	}
	st.base.writeTo(want, &st.delta)
	same := func(a, b []float64, ri int) bool {
		return a == nil || math.Float64bits(a[ri]) == math.Float64bits(b[ri])
	}
	for k := range want {
		for ri := range want[k].Counts {
			if got[k].Counts[ri] != want[k].Counts[ri] || !same(want[k].Sums, got[k].Sums, ri) || !same(want[k].Extremes, got[k].Extremes, ri) {
				return fmt.Errorf("%v region %d diverged from re-execution", want[k].Agg, ri)
			}
		}
	}
	return nil
}

// BenchmarkCoverPlan is the head-to-head of the cover-table execution (one
// monotone boundary sweep, batched per-region folds, inverted delta) against
// the per-region reference (independent binary searches per region, delta
// brute-scanned per region) on the same snapshot, sequential on both sides.
// The delta legs show the inversion's win: the reference degrades with
// regions × delta while the table pays delta × log(ranges).
func BenchmarkCoverPlan(b *testing.B) {
	pts, weights := data.TaxiPoints(1, 200_000)
	regions := data.Regions(data.Census(13, 400))
	store, err := pointstore.NewMutable(pts, weights, data.CityDomain(), sfc.Hilbert{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	aggs := []Agg{Count, Sum}
	for _, cfg := range []struct {
		name  string
		delta int
	}{{"compact", 0}, {"delta=50k", 50_000}} {
		if cfg.delta > 0 {
			if _, err := store.Append(pts[:cfg.delta], weights[:cfg.delta]); err != nil {
				b.Fatal(err)
			}
		}
		snap := store.Snapshot()
		for _, bound := range []float64{8, 16} {
			pj, err := NewPointIdxJoiner(regions, store, bound, 0)
			if err != nil {
				b.Fatal(err)
			}
			ref := refCovers(regions, pj, bound)
			b.Run(fmt.Sprintf("%s/per-region/bound=%g", cfg.name, bound), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					aggregatePerRegion(snap, ref, aggs)
				}
			})
			b.Run(fmt.Sprintf("%s/cover-plan/bound=%g", cfg.name, bound), func(b *testing.B) {
				b.ReportAllocs()
				results := NewResults(aggs, len(regions))
				for i := 0; i < b.N; i++ {
					// The head-to-head is between two executions: without the
					// drop the table side would be the warm merge.
					pj.dropPartials()
					if _, err := pj.AggregateMultiInto(ctx, aggs, 1, results); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// benchBRJJoinerRun is the repository benchmark's raster-join shape —
// {count,sum} at ε64 over a 50 k-point slice of the 16×16×12 partition's
// extent, masks cached, point buffers warm — on the given worker count.
func benchBRJJoinerRun(b *testing.B, workers int) {
	pts, weights := data.TaxiPoints(1, 50_000)
	ps := PointSet{Pts: pts, Weights: weights}
	regions := data.Regions(data.Partition(1, 16, 16, 12))
	j, err := NewBRJJoiner(regions, data.CityDomain().Bounds(), 64, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx, aggs := context.Background(), []Agg{Count, Sum}
	if _, err := j.AggregateMulti(ctx, ps, aggs, workers); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.AggregateMulti(ctx, ps, aggs, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBRJJoinerRun times the warm raster join of adhoc_join's slowest
// shape. bytes/op must stay unrelated to the tile's pixel count and to the
// points: the point buffers are retained, not reallocated.
func BenchmarkBRJJoinerRun(b *testing.B) {
	b.Run("e64", func(b *testing.B) { benchBRJJoinerRun(b, 0) })
}

// benchRStarJoiner is the repository benchmark's exact shape — {count} over a
// 50 k-point slice of the 16×16×12 partition's extent, R*-tree filter plus
// exact refinement — on one worker.
func benchRStarJoiner(b *testing.B) {
	pts, _ := data.TaxiPoints(1, 50_000)
	ps := PointSet{Pts: pts}
	j := NewRStarJoiner(data.Regions(data.Partition(1, 16, 16, 12)), 0)
	ctx, aggs := context.Background(), []Agg{Count}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.AggregateMulti(ctx, ps, aggs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRStarJoiner times the exact join of adhoc_join's ε = 0 shape.
func BenchmarkRStarJoiner(b *testing.B) {
	b.Run("benchset", benchRStarJoiner)
}
