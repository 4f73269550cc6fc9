package distbound

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distbound/internal/data"
)

// sameBits fails unless got and want hold the same aggregate with the same
// count and the same value bits in every region: +0 and −0 differ here.
func sameBits(t *testing.T, label string, want, got Result) {
	t.Helper()
	if got.Agg != want.Agg || len(got.Counts) != len(want.Counts) {
		t.Fatalf("%s: got %v over %d regions, want %v over %d", label, got.Agg, len(got.Counts), want.Agg, len(want.Counts))
	}
	for ri := range want.Counts {
		if got.Counts[ri] != want.Counts[ri] {
			t.Fatalf("%s region %d: count %d, want %d", label, ri, got.Counts[ri], want.Counts[ri])
		}
		if g, w := math.Float64bits(got.Value(ri)), math.Float64bits(want.Value(ri)); g != w {
			t.Fatalf("%s region %d: %v bits %#x, want %#x", label, ri, want.Agg, g, w)
		}
	}
}

// cloneResults deep-copies result columns, so they outlive the Response's
// Release.
func cloneResults(rs []Result) []Result {
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{
			Agg:      r.Agg,
			Counts:   append([]int64(nil), r.Counts...),
			Sums:     append([]float64(nil), r.Sums...),
			Extremes: append([]float64(nil), r.Extremes...),
		}
	}
	return out
}

// TestEveryStrategyIgnoresWorkers holds Request.Workers to what its godoc
// says it shapes — speed only: every strategy, on an ad-hoc point set, a
// freshly registered dataset and a mutated one (delta rows and tombstones),
// answers all its aggregates in the same bits at 1, 2, 3 and 8 workers. The
// weights are the taxi generator's fares, whose sums round, so a fold whose
// association followed the worker count would show.
func TestEveryStrategyIgnoresWorkers(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(361))
	pts, ws := data.TaxiPoints(362, 30_000)
	e := NewEngine(dataRegions(363, 5, 5, 8))

	fresh, err := e.RegisterPoints("fresh", pts[:24_000], ws[:24_000])
	if err != nil {
		t.Fatal(err)
	}
	mutated, err := e.RegisterPoints("mutated", pts[:24_000], ws[:24_000])
	if err != nil {
		t.Fatal(err)
	}
	mutated.SetCompactionThreshold(0)
	ids, err := mutated.Append(pts[24_000:], ws[24_000:])
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 500; k++ {
		mutated.Delete(uint64(rng.Intn(24_000)), ids[rng.Intn(len(ids))])
	}
	if st := mutated.Stats(); st.Tombstones == 0 || st.DeltaLive == 0 || st.DeltaDead == 0 {
		t.Fatalf("mutation left a structure unexercised: %+v", st)
	}

	all := []Agg{Count, Sum, Avg, Min, Max}
	for _, target := range []struct {
		name string
		req  Request
	}{
		{"ad-hoc", Request{Points: PointSet{Pts: pts, Weights: ws}}},
		{"fresh", Request{Dataset: fresh}},
		{"mutated", Request{Dataset: mutated}},
	} {
		for _, strat := range []Strategy{StrategyExact, StrategyACT, StrategyBRJ, StrategyPointIdx} {
			if strat == StrategyPointIdx && target.req.Dataset == nil {
				continue // pointidx answers only a resident dataset
			}
			req := target.req
			req.Strategy, req.Aggs, req.Bound = &strat, all, 16
			if strat == StrategyBRJ {
				req.Aggs = []Agg{Count, Sum, Avg} // BRJ refuses MIN/MAX
			}
			var want []Result
			for _, workers := range []int{1, 2, 3, 8} {
				req.Workers = workers
				resp, err := e.Do(ctx, req)
				if err != nil {
					t.Fatalf("%s %v workers=%d: %v", target.name, strat, workers, err)
				}
				if want == nil {
					want = cloneResults(resp.Results)
					continue
				}
				for k := range want {
					sameBits(t, fmt.Sprintf("%s %v workers=%d", target.name, strat, workers), want[k], resp.Results[k])
				}
			}
		}
	}
}

// TestSignedZeroExtremesAgree pins one MIN/MAX rule on every path: −0 orders
// below +0, whichever arrives first. Two weights, +0 and −0, at one point
// must read MIN −0 and MAX +0 from BruteForceJoin and from every strategy
// that answers extremes (BRJ refuses them), on an ad-hoc point set, a
// registered dataset and a dataset holding the pair as delta rows.
func TestSignedZeroExtremesAgree(t *testing.T) {
	ctx := context.Background()
	regions := dataRegions(366, 4, 4, 8)
	cands, _ := data.TaxiPoints(367, 64)
	var p Point
	region := -1
	for _, c := range cands {
		n := 0
		for ri, rg := range regions {
			if rg.ContainsPoint(c) {
				p, region, n = c, ri, n+1
			}
		}
		if n == 1 {
			break
		}
		region = -1
	}
	if region < 0 {
		t.Fatal("no candidate point lies in exactly one region")
	}
	negZero := math.Copysign(0, -1)
	for _, order := range [][]float64{{0, negZero}, {negZero, 0}} {
		name := "{+0,-0}"
		if math.Signbit(order[0]) {
			name = "{-0,+0}"
		}
		pair := PointSet{Pts: []Point{p, p}, Weights: order}
		e := NewEngine(regions)
		ds, err := e.RegisterPoints("pair", pair.Pts, pair.Weights)
		if err != nil {
			t.Fatal(err)
		}
		delta, err := e.RegisterPoints("delta", nil, []float64{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := delta.Append(pair.Pts, pair.Weights); err != nil {
			t.Fatal(err)
		}
		for _, agg := range []Agg{Min, Max} {
			brute, err := BruteForceJoin(pair, regions, agg)
			if err != nil {
				t.Fatal(err)
			}
			want := math.Float64bits(brute.Value(region))
			if wantSign := agg == Min; brute.Counts[region] != 2 || math.Signbit(brute.Value(region)) != wantSign {
				t.Fatalf("%s BruteForceJoin %v reads %v over %d points", name, agg, brute.Value(region), brute.Counts[region])
			}
			check := func(label string, req Request) {
				t.Helper()
				req.Aggs, req.Bound = []Agg{agg}, 4
				resp, err := e.Do(ctx, req)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				r := resp.Results[0]
				if r.Counts[region] != 2 {
					t.Fatalf("%s %s: region %d counts %d points, want 2", name, label, region, r.Counts[region])
				}
				for ri, c := range r.Counts {
					if got := math.Float64bits(r.Value(ri)); c > 0 && got != want {
						t.Errorf("%s %s %v region %d: bits %#x, BruteForceJoin reads %#x", name, label, agg, ri, got, want)
					}
				}
			}
			for _, strat := range []Strategy{StrategyExact, StrategyACT, StrategyPointIdx} {
				strat := strat
				if strat != StrategyPointIdx {
					check("ad-hoc "+strat.String(), Request{Points: pair, Strategy: &strat})
				}
				check("dataset "+strat.String(), Request{Dataset: ds, Strategy: &strat})
				check("delta "+strat.String(), Request{Dataset: delta, Strategy: &strat})
			}
		}
	}
}
