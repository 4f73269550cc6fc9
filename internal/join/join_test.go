package join

import (
	"math"
	"testing"

	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// testWorkload builds a small partition plus clustered points.
func testWorkload(t *testing.T, nPts int) (PointSet, []geom.Region, sfc.Domain) {
	t.Helper()
	pts, weights := data.TaxiPoints(11, nPts)
	polys := data.Partition(12, 6, 6, 4)
	return PointSet{Pts: pts, Weights: weights}, data.Regions(polys), data.CityDomain()
}

func resultsEqual(a, b Result) bool {
	if len(a.Counts) != len(b.Counts) {
		return false
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return false
		}
		if a.Sums != nil && math.Abs(a.Sums[i]-b.Sums[i]) > 1e-6 {
			return false
		}
	}
	return true
}

func TestExactJoinersAgreeWithBruteForce(t *testing.T) {
	ps, regions, d := testWorkload(t, 20000)
	for _, agg := range []Agg{Count, Sum, Avg} {
		want, err := BruteForce(ps, regions, agg)
		if err != nil {
			t.Fatal(err)
		}

		rj := NewRStarJoiner(regions, 0)
		got, err := rj.Aggregate(ps, agg)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(got, want) {
			t.Errorf("%v: R*-tree join differs from brute force", agg)
		}
		if rj.MemoryBytes() <= 0 {
			t.Error("R*-tree MemoryBytes must be positive")
		}

		// The budget moves work between interior hits and refined boundary
		// hits; the answer is exact at every budget.
		prevCells := 0
		for _, budget := range []int{8, DefaultSICells, 256} {
			sj, err := NewSIJoiner(regions, d, sfc.Hilbert{}, budget)
			if err != nil {
				t.Fatal(err)
			}
			if sj.NumCells() <= prevCells {
				t.Errorf("budget %d: %d cells, not above the coarser cover's %d", budget, sj.NumCells(), prevCells)
			}
			prevCells = sj.NumCells()
			got, err = sj.Aggregate(ps, agg)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(got, want) {
				t.Errorf("%v budget %d: SI join differs from brute force", agg, budget)
			}
		}

		gj := NewGridJoiner(ps, data.CityBounds(), 64)
		got, err = gj.Aggregate(regions, agg)
		if err != nil {
			t.Fatal(err)
		}
		if !resultsEqual(got, want) {
			t.Errorf("%v: grid join differs from brute force", agg)
		}
	}
}

func TestACTJoinDistanceBoundGuarantee(t *testing.T) {
	ps, regions, d := testWorkload(t, 20000)
	eps := 64.0 // coarse bound so errors actually occur
	aj, err := NewACTJoiner(regions, d, sfc.Hilbert{}, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if aj.NumCells() == 0 || aj.MemoryBytes() <= 0 {
		t.Error("joiner accounting wrong")
	}
	// The paper's guarantee: every point whose approximate region
	// assignment differs from an exact assignment lies within eps of a
	// region boundary.
	for i, p := range ps.Pts {
		got := aj.LookupPoint(p)
		if got < 0 {
			t.Fatalf("point %d unassigned (partition covers the city)", i)
		}
		if regions[got].ContainsPoint(p) {
			continue
		}
		if dist := regions[got].BoundaryDist(p); dist > eps {
			t.Fatalf("point %v assigned to region %d at distance %g > bound %g", p, got, dist, eps)
		}
	}
}

func TestACTJoinCountsConservative(t *testing.T) {
	ps, regions, d := testWorkload(t, 20000)
	eps := 32.0
	aj, err := NewACTJoiner(regions, d, sfc.Hilbert{}, eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := BruteForce(ps, regions, Count)
	if err != nil {
		t.Fatal(err)
	}
	approx, ivs, err := aj.AggregateWithRange(ps, Count)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range regions {
		// Conservative covers: approximate count dominates the exact count.
		if approx.Counts[ri] < exact.Counts[ri] {
			t.Errorf("region %d: approx %d < exact %d (false negative in conservative cover)",
				ri, approx.Counts[ri], exact.Counts[ri])
		}
		// §6 interval: the exact count is guaranteed to lie in [α-εb, α].
		if !ivs[ri].Contains(float64(exact.Counts[ri])) {
			t.Errorf("region %d: exact %d outside guaranteed interval [%g, %g]",
				ri, exact.Counts[ri], ivs[ri].Lo, ivs[ri].Hi)
		}
	}
}

// TestACTSumRangeMixedSignWeights: the §6 SUM interval encloses the exact
// sum when weights are negative too. Integer weights keep every sum exact,
// so the check is free of rounding.
func TestACTSumRangeMixedSignWeights(t *testing.T) {
	pts, _ := data.TaxiPoints(11, 20000)
	regions := data.Regions(data.Partition(12, 4, 4, 4))
	aj, err := NewACTJoiner(regions, data.CityDomain(), sfc.Hilbert{}, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, weight := range map[string]func(i int) float64{
		"all -1":    func(int) float64 { return -1 },
		"mixed":     func(i int) float64 { return float64(i%7 - 3) },
		"non-neg":   func(i int) float64 { return float64(i % 5) },
		"alternate": func(i int) float64 { return float64(1 - 2*(i%2)) },
	} {
		ps := PointSet{Pts: pts, Weights: make([]float64, len(pts))}
		for i := range ps.Weights {
			ps.Weights[i] = weight(i)
		}
		exact, err := BruteForce(ps, regions, Sum)
		if err != nil {
			t.Fatal(err)
		}
		approx, ivs, err := aj.AggregateWithRange(ps, Sum)
		if err != nil {
			t.Fatal(err)
		}
		for ri := range regions {
			// The approximate α lies in the interval too: the positive and the
			// negative boundary partials widen it on opposite sides.
			for _, v := range []float64{exact.Sums[ri], approx.Sums[ri]} {
				if !ivs[ri].Contains(v) {
					t.Errorf("%s: region %d: SUM %g outside [%g, %g] (exact %g, approx %g)",
						name, ri, v, ivs[ri].Lo, ivs[ri].Hi, exact.Sums[ri], approx.Sums[ri])
				}
			}
		}
	}
}

func TestACTJoinErrorShrinksWithBound(t *testing.T) {
	ps, regions, d := testWorkload(t, 20000)
	exact, _ := BruteForce(ps, regions, Count)
	var prev float64 = math.Inf(1)
	for _, eps := range []float64{256, 64, 16} {
		aj, err := NewACTJoiner(regions, d, sfc.Hilbert{}, eps, 0)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := aj.Aggregate(ps, Count)
		if err != nil {
			t.Fatal(err)
		}
		e := MedianRelativeError(approx, exact)
		if e > prev+1e-9 {
			t.Errorf("eps=%g: error %g did not shrink (prev %g)", eps, e, prev)
		}
		prev = e
	}
	if prev > 0.01 {
		t.Errorf("error at 16 m bound still %g", prev)
	}
}

func TestACTJoinSumAndAvg(t *testing.T) {
	ps, regions, d := testWorkload(t, 10000)
	aj, err := NewACTJoiner(regions, d, sfc.Hilbert{}, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	exact, _ := BruteForce(ps, regions, Sum)
	approx, err := aj.Aggregate(ps, Sum)
	if err != nil {
		t.Fatal(err)
	}
	if e := MedianRelativeError(approx, exact); e > 0.01 {
		t.Errorf("SUM median error %g", e)
	}
	// AVG is algebraic: check it is consistent with SUM/COUNT.
	avg, err := aj.Aggregate(ps, Avg)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range regions {
		if avg.Counts[ri] == 0 {
			continue
		}
		want := avg.Sums[ri] / float64(avg.Counts[ri])
		if math.Abs(avg.Value(ri)-want) > 1e-9 {
			t.Errorf("region %d: AVG inconsistent", ri)
		}
	}
}

func TestBRJMatchesExactAtFineBound(t *testing.T) {
	bounds := data.DowntownBounds()
	pts, weights := data.TaxiPointsIn(3, 20000, bounds)
	ps := PointSet{Pts: pts, Weights: weights}
	polys := data.PartitionIn(4, bounds, 5, 5, 3)
	regions := data.Regions(polys)

	exact, err := BruteForce(ps, regions, Count)
	if err != nil {
		t.Fatal(err)
	}
	brj := BRJ{Bound: 8, Bounds: bounds}
	got, stats, err := brj.Run(ps, regions, Count)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumTiles < 1 || stats.MaskPixels == 0 {
		t.Errorf("stats implausible: %+v", stats)
	}
	if e := MedianRelativeError(got, exact); e > 0.005 {
		t.Errorf("median error %g at 8 m bound", e)
	}
	// Total counts conserved within boundary slack: every point lands in
	// exactly one mask except near shared boundaries.
	var gotTotal, exactTotal int64
	for i := range regions {
		gotTotal += got.Counts[i]
		exactTotal += exact.Counts[i]
	}
	if math.Abs(float64(gotTotal-exactTotal)) > 0.01*float64(exactTotal) {
		t.Errorf("total counts: brj %d vs exact %d", gotTotal, exactTotal)
	}
}

func TestBRJTilingInvariance(t *testing.T) {
	// Forcing multi-pass execution must not change the result: pixels are
	// partitioned between tiles.
	bounds := data.DowntownBounds()
	pts, weights := data.TaxiPointsIn(5, 10000, bounds)
	ps := PointSet{Pts: pts, Weights: weights}
	regions := data.Regions(data.PartitionIn(6, bounds, 4, 4, 3))

	one := BRJ{Bound: 32, Bounds: bounds, MaxTextureSize: 1 << 20}
	many := BRJ{Bound: 32, Bounds: bounds, MaxTextureSize: 97} // tiny tiles

	r1, s1, err := one.Run(ps, regions, Sum)
	if err != nil {
		t.Fatal(err)
	}
	r2, s2, err := many.Run(ps, regions, Sum)
	if err != nil {
		t.Fatal(err)
	}
	if s1.NumTiles != 1 || s2.NumTiles < 4 {
		t.Fatalf("tile setup wrong: %d vs %d", s1.NumTiles, s2.NumTiles)
	}
	for i := range regions {
		if r1.Counts[i] != r2.Counts[i] {
			t.Errorf("region %d: counts differ across tilings: %d vs %d", i, r1.Counts[i], r2.Counts[i])
		}
		if math.Abs(r1.Sums[i]-r2.Sums[i]) > 1e-6*math.Abs(r1.Sums[i])+1e-9 {
			t.Errorf("region %d: sums differ across tilings", i)
		}
	}
}

// TestBRJRunStats pins what the one-shot join renders on the benchmark's
// partition: the passes and the mask pixels across them are Figure 7's cost
// curve, and the same numbers BRJJoiner.Stats reports for the masks it keeps.
func TestBRJRunStats(t *testing.T) {
	pts, _ := data.TaxiPoints(1, 1000)
	regions := data.Regions(data.Partition(1, 16, 16, 12))
	for _, want := range []struct {
		bound      float64
		tiles      int
		maskPixels int64
	}{{64, 1, 2747303}, {16, 4, 43327948}, {8, 9, 172933063}} {
		if testing.Short() && want.tiles > 1 {
			continue // the finer bounds render 0.3 and 1.4 GB of masks, one at a time
		}
		_, got, err := BRJ{Bound: want.bound, Bounds: data.CityBounds()}.Run(PointSet{Pts: pts}, regions, Count)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumTiles != want.tiles || got.MaskPixels != want.maskPixels {
			t.Errorf("bound %g: %d tiles, %d mask pixels; want %d, %d", want.bound, got.NumTiles, got.MaskPixels, want.tiles, want.maskPixels)
		}
	}
}

func TestBRJErrorShrinksWithBound(t *testing.T) {
	bounds := data.DowntownBounds()
	pts, _ := data.TaxiPointsIn(7, 30000, bounds)
	ps := PointSet{Pts: pts}
	regions := data.Regions(data.PartitionIn(8, bounds, 6, 6, 3))
	exact, _ := BruteForce(ps, regions, Count)
	prev := math.Inf(1)
	for _, bound := range []float64{512, 128, 16} {
		got, _, err := BRJ{Bound: bound, Bounds: bounds}.Run(ps, regions, Count)
		if err != nil {
			t.Fatal(err)
		}
		e := MedianRelativeError(got, exact)
		if e > prev+1e-9 {
			t.Errorf("bound %g: error %g did not shrink (prev %g)", bound, e, prev)
		}
		prev = e
	}
}

func TestValidation(t *testing.T) {
	ps := PointSet{Pts: []geom.Point{geom.Pt(1, 1)}}
	if _, err := BruteForce(ps, nil, Sum); err == nil {
		t.Error("SUM without weights accepted")
	}
	bad := PointSet{Pts: []geom.Point{geom.Pt(1, 1)}, Weights: []float64{1, 2}}
	if _, err := BruteForce(bad, nil, Count); err == nil {
		t.Error("mismatched weights accepted")
	}
	if _, _, err := (BRJ{Bound: 0, Bounds: data.CityBounds()}).Run(ps, nil, Count); err == nil {
		t.Error("zero bound accepted")
	}
	if Count.String() != "COUNT" || Sum.String() != "SUM" || Avg.String() != "AVG" {
		t.Error("Agg.String wrong")
	}
}

func TestMedianRelativeError(t *testing.T) {
	exact := Result{Agg: Count, Counts: []int64{100, 200, 0, 50}}
	approx := Result{Agg: Count, Counts: []int64{110, 200, 5, 50}}
	// Errors: 0.1, 0, (skipped), 0 → median of [0, 0, 0.1] = 0.
	if got := MedianRelativeError(approx, exact); got != 0 {
		t.Errorf("median = %g, want 0", got)
	}
	approx2 := Result{Agg: Count, Counts: []int64{110, 220, 0, 55}}
	if got := MedianRelativeError(approx2, exact); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("median = %g, want 0.1", got)
	}
	if MedianRelativeError(Result{Agg: Count}, Result{Agg: Count}) != 0 {
		t.Error("empty result median should be 0")
	}
}

func TestMinMaxAggregates(t *testing.T) {
	ps, regions, d := testWorkload(t, 15000)
	for _, agg := range []Agg{Min, Max} {
		want, err := BruteForce(ps, regions, agg)
		if err != nil {
			t.Fatal(err)
		}
		// Exact joiners must agree with brute force exactly.
		rj := NewRStarJoiner(regions, 0)
		got, err := rj.Aggregate(ps, agg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range regions {
			if want.Counts[i] > 0 && got.Value(i) != want.Value(i) {
				t.Errorf("%v region %d: R* %g vs brute %g", agg, i, got.Value(i), want.Value(i))
			}
		}
		gj := NewGridJoiner(ps, data.CityBounds(), 64)
		got, err = gj.Aggregate(regions, agg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range regions {
			if want.Counts[i] > 0 && got.Value(i) != want.Value(i) {
				t.Errorf("%v region %d: grid %g vs brute %g", agg, i, got.Value(i), want.Value(i))
			}
		}
		// ACT is approximate but MIN/MAX over a large region rarely sits on
		// the boundary: just require plausibility (approx extreme at least
		// as extreme as exact for conservative covers).
		aj, err := NewACTJoiner(regions, d, sfc.Hilbert{}, 32, 0)
		if err != nil {
			t.Fatal(err)
		}
		approx, err := aj.Aggregate(ps, agg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range regions {
			if want.Counts[i] == 0 {
				continue
			}
			if agg == Min && approx.Value(i) > want.Value(i) {
				t.Errorf("MIN region %d: conservative approx %g above exact %g", i, approx.Value(i), want.Value(i))
			}
			if agg == Max && approx.Value(i) < want.Value(i) {
				t.Errorf("MAX region %d: conservative approx %g below exact %g", i, approx.Value(i), want.Value(i))
			}
		}
		// Parallel merge must preserve extremes exactly.
		par, err := aggregateAt(aj, ps, agg, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := range regions {
			if par.Value(i) != approx.Value(i) {
				t.Errorf("%v region %d: parallel %g vs sequential %g", agg, i, par.Value(i), approx.Value(i))
			}
		}
	}
	// BRJ rejects MIN/MAX explicitly.
	if _, _, err := (BRJ{Bound: 10, Bounds: data.CityBounds()}).Run(ps, regions, Min); err == nil {
		t.Error("BRJ accepted MIN")
	}
	// Range estimation rejects non-COUNT/SUM aggregates.
	aj, _ := NewACTJoiner(regions[:1], d, sfc.Hilbert{}, 64, 0)
	if _, _, err := aj.AggregateWithRange(ps, Avg); err == nil {
		t.Error("AggregateWithRange accepted AVG")
	}
	if Min.String() != "MIN" || Max.String() != "MAX" {
		t.Error("Agg names wrong")
	}
}
