package shard

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"distbound"
	"distbound/internal/data"
)

// TestNoOtherRowMovesSum: a resident SUM reads only the rows its region's
// ranges cover, so one huge weight on the first point in curve order — or
// its deletion — leaves every other region's SUM where the streaming ACT
// join over the same rows puts it, to within float rounding of the region's
// own rows. Checked on one engine and through a 4-shard partition, with the
// deletion left as a tombstone (auto-compaction off).
func TestNoOtherRowMovesSum(t *testing.T) {
	const bound = 16.0
	ctx := context.Background()
	regions := data.Regions(data.Partition(1, 5, 5, 12))
	pts, fares := data.TaxiPoints(1, 200_000)
	dom := distbound.DomainForRegions(regions...)
	first, firstKey := -1, uint64(math.MaxUint64)
	for i, p := range pts {
		if k, ok := dom.LeafPos(distbound.Hilbert, p); ok && k < firstKey {
			first, firstKey = i, k
		}
	}

	ref := distbound.NewEngine(regions)
	act := distbound.StrategyACT
	actSums := func(pts []distbound.Point, ws []float64) []float64 {
		resp, err := ref.Do(ctx, distbound.Request{
			Points: distbound.PointSet{Pts: pts, Weights: ws},
			Aggs:   []distbound.Agg{distbound.Sum}, Bound: bound, Strategy: &act,
		})
		if err != nil {
			t.Fatal(err)
		}
		return slices.Clone(resp.Results[0].Sums)
	}
	// check compares every region except those whose SUM, on either side,
	// holds the outlier (weight w; 0 once deleted).
	check := func(t *testing.T, label string, got, want []float64, w float64) {
		t.Helper()
		compared := 0
		for ri := range want {
			if w > 0 && (math.Abs(got[ri]) > w/2 || math.Abs(want[ri]) > w/2) {
				continue
			}
			compared++
			if math.Abs(got[ri]-want[ri]) > 1e-12*math.Abs(want[ri]) {
				t.Errorf("%s region %d: resident SUM %v, ACT %v (rel %.3g)", label, ri, got[ri], want[ri],
					math.Abs(got[ri]-want[ri])/math.Abs(want[ri]))
			}
		}
		if compared < len(want)-2 {
			t.Errorf("%s: only %d of %d regions compared", label, compared, len(want))
		}
	}

	for _, w := range []float64{1e17, 1e15} {
		ws := slices.Clone(fares)
		ws[first] = w
		wantBefore := actSums(pts, ws)
		wantAfter := actSums(slices.Delete(slices.Clone(pts), first, first+1), slices.Delete(slices.Clone(ws), first, first+1))

		t.Run(fmt.Sprintf("engine/outlier=%g", w), func(t *testing.T) {
			e := distbound.NewEngine(regions)
			ds, err := e.RegisterPoints("taxi", pts, ws)
			if err != nil {
				t.Fatal(err)
			}
			ds.SetCompactionThreshold(0)
			pointidx := distbound.StrategyPointIdx
			sums := func() []float64 {
				resp, err := e.Do(ctx, distbound.Request{
					Dataset: ds, Aggs: []distbound.Agg{distbound.Sum}, Bound: bound, Strategy: &pointidx,
				})
				if err != nil {
					t.Fatal(err)
				}
				return slices.Clone(resp.Results[0].Sums)
			}
			check(t, "outlier", sums(), wantBefore, w)
			if n, err := ds.Delete(uint64(first)); n != 1 || err != nil {
				t.Fatalf("delete: %d, %v", n, err)
			}
			check(t, "deleted", sums(), wantAfter, 0)
		})

		t.Run(fmt.Sprintf("sharded/outlier=%g", w), func(t *testing.T) {
			s, ids, err := New("taxi", regions, pts, ws, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.SetCompactionThreshold(0)
			sums := func() []float64 {
				resp, err := s.Do(ctx, Request{Aggs: []distbound.Agg{distbound.Sum}, Bound: bound})
				if err != nil {
					t.Fatal(err)
				}
				return slices.Clone(resp.Results[0].Sums)
			}
			check(t, "outlier", sums(), wantBefore, w)
			if n, err := s.Delete(ids[first]); n != 1 || err != nil {
				t.Fatalf("delete: %d, %v", n, err)
			}
			check(t, "deleted", sums(), wantAfter, 0)
		})
	}
}
