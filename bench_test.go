// Benchmarks regenerating the core measurement of every table and figure in
// the paper's evaluation (one Benchmark* family per experiment; the full
// tables, with workload sweeps and accuracy columns, are produced by
// cmd/spatialbench -experiment). Fixtures are built once at a reduced scale so
// the whole suite completes in minutes; the experiments' scale knobs are
// spatialbench's -points, -census and -quick.
package distbound

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"distbound/internal/approx"
	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/index/kdtree"
	"distbound/internal/index/quadtree"
	"distbound/internal/index/rstar"
	"distbound/internal/index/sorted"
	"distbound/internal/join"
	"distbound/internal/raster"
	"distbound/internal/rs"
	"distbound/internal/sfc"
)

const (
	benchPoints = 200_000
	benchCensus = 400
)

// fig4Fixture holds everything Figure 4's benchmarks share.
type fig4Fixture struct {
	pts     []geom.Point
	keys    []uint64
	queries []*geom.Polygon
	covers  map[int][][]raster.PosRange
	rsIdx   *rs.RadixSpline
	col     *sorted.Column
	rstar   *rstar.Tree
	qt      *quadtree.Tree
	kd      *kdtree.Tree
}

var (
	fig4Once sync.Once
	fig4     *fig4Fixture
)

func fig4Setup(b *testing.B) *fig4Fixture {
	b.Helper()
	fig4Once.Do(func() {
		d := data.CityDomain()
		curve := sfc.Hilbert{}
		f := &fig4Fixture{covers: map[int][][]raster.PosRange{}}
		f.pts, _ = data.TaxiPoints(1, benchPoints)
		f.queries = data.Census(2, benchCensus)
		f.keys = make([]uint64, len(f.pts))
		for i, p := range f.pts {
			f.keys[i], _ = d.LeafPos(curve, p)
		}
		f.col = sorted.New(f.keys)
		f.keys = f.col.Keys()
		f.rsIdx = rs.Build(f.keys, rs.DefaultRadixBits, rs.DefaultSplineError)
		for _, prec := range []int{32, 128, 512} {
			ranges := make([][]raster.PosRange, len(f.queries))
			for qi, q := range f.queries {
				ranges[qi] = raster.CoverBudget(q, d, curve, prec).Ranges()
			}
			f.covers[prec] = ranges
		}
		ptItems := make([]rstar.Item, len(f.pts))
		for i, p := range f.pts {
			ptItems[i] = rstar.Item{Rect: geom.Rect{Min: p, Max: p}, ID: int32(i)}
		}
		f.rstar = rstar.BulkLoad(ptItems, rstar.DefaultMaxEntries)
		f.qt = quadtree.Build(f.pts, nil)
		f.kd = kdtree.Build(f.pts, nil)
		fig4 = f
	})
	return fig4
}

// benchRangeCounter runs a Figure 4(a) query workload: count points per
// query polygon through cover ranges.
func benchCoverQueries(b *testing.B, f *fig4Fixture, prec int, idx interface {
	CountRange(lo, hi uint64) int
}) {
	ranges := f.covers[prec]
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		for _, r := range ranges[i%len(ranges)] {
			sink += idx.CountRange(r.Lo, r.Hi)
		}
	}
	_ = sink
}

// BenchmarkFig4a: point-polygon containment query cost per method (one
// iteration = one query polygon).
func BenchmarkFig4aRS32(b *testing.B)  { benchCoverQueries(b, fig4Setup(b), 32, fig4Setup(b).rsIdx) }
func BenchmarkFig4aRS128(b *testing.B) { benchCoverQueries(b, fig4Setup(b), 128, fig4Setup(b).rsIdx) }
func BenchmarkFig4aRS512(b *testing.B) { benchCoverQueries(b, fig4Setup(b), 512, fig4Setup(b).rsIdx) }
func BenchmarkFig4aBS512(b *testing.B) { benchCoverQueries(b, fig4Setup(b), 512, fig4Setup(b).col) }

func BenchmarkFig4aRStarTree(b *testing.B) {
	f := fig4Setup(b)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += f.rstar.CountRect(f.queries[i%len(f.queries)].Bounds())
	}
	_ = sink
}

func BenchmarkFig4aQuadtree(b *testing.B) {
	f := fig4Setup(b)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += f.qt.CountRect(f.queries[i%len(f.queries)].Bounds())
	}
	_ = sink
}

func BenchmarkFig4aKdTree(b *testing.B) {
	f := fig4Setup(b)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += f.kd.CountRect(f.queries[i%len(f.queries)].Bounds())
	}
	_ = sink
}

// BenchmarkFig4bCover: the cost of the precision knob itself — building a
// budgeted query cover (one iteration = one polygon).
func BenchmarkFig4bCover512(b *testing.B) {
	f := fig4Setup(b)
	d := data.CityDomain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raster.CoverBudget(f.queries[i%len(f.queries)], d, sfc.Hilbert{}, 512)
	}
}

// fig6Fixture holds per-dataset joiners.
type fig6Fixture struct {
	ps    join.PointSet
	names []string
	act   []*join.ACTJoiner
	rst   []*join.RStarJoiner
	si    []*join.SIJoiner
}

var (
	fig6Once sync.Once
	fig6     *fig6Fixture
)

func fig6Setup(b *testing.B) *fig6Fixture {
	b.Helper()
	fig6Once.Do(func() {
		d := data.CityDomain()
		curve := sfc.Hilbert{}
		f := &fig6Fixture{}
		pts, _ := data.TaxiPoints(1, benchPoints)
		f.ps = join.PointSet{Pts: pts}
		for _, ds := range []struct {
			name  string
			polys []*geom.Polygon
		}{
			{"Boroughs", data.Boroughs(11)},
			{"Neighborhoods", data.Neighborhoods(12)},
			{"Census", data.Census(13, benchCensus)},
		} {
			regions := data.Regions(ds.polys)
			aj, err := join.NewACTJoiner(regions, d, curve, 8, 0)
			if err != nil {
				panic(err)
			}
			sj, err := join.NewSIJoiner(regions, d, curve, 0)
			if err != nil {
				panic(err)
			}
			f.names = append(f.names, ds.name)
			f.act = append(f.act, aj)
			f.rst = append(f.rst, join.NewRStarJoiner(regions, 0))
			f.si = append(f.si, sj)
		}
		fig6 = f
	})
	return fig6
}

// BenchmarkFig6: the main-memory aggregation join, one iteration = one full
// join over the point set (compare ns/op across engines and datasets).
func BenchmarkFig6(b *testing.B) {
	f := fig6Setup(b)
	for di, name := range f.names {
		b.Run("ACT/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.act[di].Aggregate(f.ps, join.Count); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("RStar/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.rst[di].Aggregate(f.ps, join.Count); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("SI/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.si[di].Aggregate(f.ps, join.Count); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMemFootprint reports the §5.1 memory comparison as custom bench
// metrics (bytes per index over the Neighborhoods dataset).
func BenchmarkMemFootprint(b *testing.B) {
	f := fig6Setup(b)
	di := 1 // Neighborhoods
	for i := 0; i < b.N; i++ {
		_ = f.act[di].MemoryBytes()
	}
	b.ReportMetric(float64(f.act[di].MemoryBytes()), "ACT-bytes")
	b.ReportMetric(float64(f.si[di].MemoryBytes()), "SI-bytes")
	b.ReportMetric(float64(f.rst[di].MemoryBytes()), "Rstar-bytes")
	b.ReportMetric(float64(f.act[di].NumCells()), "ACT-cells")
}

// fig7Fixture: downtown raster-join workload.
type fig7Fixture struct {
	ps      join.PointSet
	regions []geom.Region
	bounds  geom.Rect
	grid    *join.GridJoiner
}

var (
	fig7Once sync.Once
	fig7     *fig7Fixture
)

func fig7Setup(b *testing.B) *fig7Fixture {
	b.Helper()
	fig7Once.Do(func() {
		f := &fig7Fixture{bounds: data.DowntownBounds()}
		pts, _ := data.TaxiPointsIn(1, benchPoints, f.bounds)
		f.ps = join.PointSet{Pts: pts}
		f.regions = data.NeighborhoodRegions260In(14, f.bounds)
		f.grid = join.NewGridJoiner(f.ps, f.bounds, 0)
		fig7 = f
	})
	return fig7
}

// BenchmarkFig7BRJ: one iteration = one full Bounded Raster Join at the
// given distance bound; compare against BenchmarkFig7Baseline.
func BenchmarkFig7BRJ(b *testing.B) {
	f := fig7Setup(b)
	for _, bound := range []float64{10, 5, 2, 1} {
		name := map[float64]string{10: "bound=10m", 5: "bound=5m", 2: "bound=2m", 1: "bound=1m"}[bound]
		b.Run(name, func(b *testing.B) {
			brj := join.BRJ{Bound: bound, Bounds: f.bounds}
			for i := 0; i < b.N; i++ {
				if _, _, err := brj.Run(f.ps, f.regions, join.Count); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig7Baseline(b *testing.B) {
	f := fig7Setup(b)
	for i := 0; i < b.N; i++ {
		if _, err := f.grid.Aggregate(f.regions, join.Count); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResident: repeated aggregation over a registered dataset — the
// resident learned-index probe against streaming the same points through
// the ACT join at the same bound (one iteration = one full aggregation on
// warm caches; the resident path should win, stay flat in point count, and
// — with the caller releasing its responses — allocate nothing).
func BenchmarkResident(b *testing.B) {
	pts, weights := data.TaxiPoints(1, benchPoints)
	regions := data.Regions(data.Census(13, benchCensus))
	e := NewEngine(regions)
	ds, err := e.RegisterPoints("bench", pts, weights)
	if err != nil {
		b.Fatal(err)
	}
	d := DomainForRegions(regions...)
	ps := join.PointSet{Pts: pts, Weights: weights}
	// Coarse-first, so each bound's own level is built and serves it: asked
	// after bound 8, bound 16 would be served by level 8's cover, and the
	// cold rows below would drop a joiner no read uses.
	for _, bound := range []float64{16, 8} {
		aj, err := join.NewACTJoiner(regions, d, sfc.Hilbert{}, bound, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("streaming-act/bound=%g", bound), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := aj.Aggregate(ps, join.Count); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Single-threaded on both sides: the streaming baseline above is the
		// sequential ACT join, so the resident path must not get intra-query
		// parallelism the baseline is denied — the measured gap is then the
		// strategy's, not the core count's.
		req := Request{Dataset: ds, Aggs: []Agg{Count}, Bound: bound, Workers: 1}
		// Warm the cover artifact and the joiner's partials: the warm
		// resident Do — snapshot, two atomic loads, one O(regions) merge —
		// is the zero-alloc acceptance gate, and CI fails this benchmark on
		// any allocs/op.
		b.Run(fmt.Sprintf("resident-pointidx/bound=%g", bound), func(b *testing.B) {
			benchResidentDo(b, e, req, nil)
		})
		// Joiner dropped before every request: boundary resolution and the
		// per-region folds re-run over the resident cover set — what the
		// first request after a compaction pays.
		b.Run(fmt.Sprintf("resident-pointidx-cold/bound=%g", bound), func(b *testing.B) {
			benchResidentDo(b, e, req, func() { e.dropJoiner(ds, bound) })
		})
		// The same cold fill for the weighted sets: SUM alone through the
		// span fold, then SUM, MIN and MAX out of one fold call.
		for _, set := range []struct {
			name string
			aggs []Agg
		}{{"sums", []Agg{Count, Sum, Avg}}, {"all", []Agg{Count, Sum, Avg, Min, Max}}} {
			wreq := req
			wreq.Aggs = set.aggs
			b.Run(fmt.Sprintf("resident-pointidx-cold-%s/bound=%g", set.name, bound), func(b *testing.B) {
				benchResidentDo(b, e, wreq, func() { e.dropJoiner(ds, bound) })
			})
		}
	}
	// Tombstones and the delta below accumulate; no compaction may sweep
	// them away mid-benchmark.
	ds.SetCompactionThreshold(0)
	// Read after delete: one more base row deleted before every request, so
	// each one refills the base partials over the spans the previous fill
	// resolved. The refill allocates, so the name keeps it out of CI's
	// allocation gate. An untimed delete ahead of the warm-up builds the ID
	// index. Runs after the cold fills, whose base stays free of tombstones.
	nextID := uint64(0)
	deleteOne := func() {
		for ; ; nextID++ {
			if n, err := ds.Delete(nextID); err != nil || n == 1 {
				return
			}
		}
	}
	for _, bound := range []float64{8, 16} {
		req := Request{Dataset: ds, Aggs: []Agg{Count}, Bound: bound, Workers: 1}
		b.Run(fmt.Sprintf("resident-pointidx-after-delete/bound=%g", bound), func(b *testing.B) {
			deleteOne()
			benchResidentDo(b, e, req, deleteOne)
		})
	}
	// The same warm request over an un-compacted delta the published state
	// already holds — the steady state between two appends — under the same
	// zero-alloc gate. Runs last: the delta stays.
	if _, err := ds.Append(pts[:4096], weights[:4096]); err != nil {
		b.Fatal(err)
	}
	waitMaintained(ds) // its pass allocates, and must not land in the count
	for _, bound := range []float64{8, 16} {
		req := Request{Dataset: ds, Aggs: []Agg{Count}, Bound: bound, Workers: 1}
		b.Run(fmt.Sprintf("resident-pointidx-delta/bound=%g", bound), func(b *testing.B) {
			benchResidentDo(b, e, req, nil)
		})
	}
}

// benchResidentDo times an unforced resident request that must plan
// pointidx, after one untimed warm-up; before, when set, runs ahead of every
// timed request.
func benchResidentDo(b *testing.B, e *Engine, req Request, before func()) {
	b.ReportAllocs()
	ctx := context.Background()
	warm, err := e.Do(ctx, req)
	if err != nil {
		b.Fatal(err)
	}
	warm.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if before != nil {
			before()
		}
		resp, err := e.Do(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Strategy != StrategyPointIdx {
			b.Fatalf("planned %v, want pointidx", resp.Strategy)
		}
		resp.Release()
	}
}

// BenchmarkAdhocArms is the grid the ad-hoc rule (planner.ChooseInto) is
// read from: every arm forced in turn over three region sets — the repository
// benchmark's 16×16 partition, Boroughs and Neighborhoods — at ε ∈ {0, 2, …,
// 128} and at one worker and GOMAXPROCS. Exact, whose answer does not depend
// on the bound, runs at every ε beside the arms that do, so a row's walls are
// taken close together in time. Each cell gets its own engine; its
// first Do, over the first 50 k-point slice of 1 M points, reports the cold
// build (build-ms) and the pooled count error against the exact arm on that
// slice (cnt-err); then one iteration is one warm Do over the next slice, and
// the wall is reported per point (ns/pt). Act cells also report coarse/pt, the
// share of the points run that act resolves from their coarse cell
// (coarseShare). Every aggregate set is {COUNT, SUM}, which every arm answers.
func BenchmarkAdhocArms(b *testing.B) {
	const slice = 50_000
	pts, weights := data.TaxiPoints(1, 1_000_000)
	first := PointSet{Pts: pts[:slice], Weights: weights[:slice]}
	aggs := []Agg{Count, Sum}
	ctx := context.Background()
	for _, set := range []struct {
		name    string
		regions []Region
	}{
		{"partition16x16", data.Regions(data.Partition(1, 16, 16, 12))},
		{"boroughs", data.Regions(data.Boroughs(1))},
		{"neighborhoods", data.Regions(data.Neighborhoods(1))},
	} {
		d := DomainForRegions(set.regions...)
		exactCounts := sync.OnceValue(func() []int64 {
			s := StrategyExact
			resp, err := NewEngine(set.regions).Do(ctx, Request{Points: first, Aggs: aggs, Strategy: &s})
			if err != nil {
				b.Fatal(err)
			}
			return resp.Results[0].Counts
		})
		for _, bound := range []float64{0, 2, 4, 8, 16, 32, 64, 128} {
			bounded := sync.OnceValue(func() *[1 << 16]bool { return bucketsWithBoundaries(set.regions, d, bound) })
			for _, s := range []Strategy{StrategyExact, StrategyACT, StrategyBRJ} {
				if s != StrategyExact && bound == 0 {
					continue
				}
				for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
					var (
						e      *Engine // the cell's engine, kept across b.N rounds
						build  time.Duration
						cntErr float64
					)
					b.Run(fmt.Sprintf("%s/e%g/%v/workers=%d", set.name, bound, s, workers), func(b *testing.B) {
						b.ReportAllocs()
						req := Request{Aggs: aggs, Bound: bound, Strategy: &s, Workers: workers}
						run := func(ps PointSet) Response {
							req.Points = ps
							resp, err := e.Do(ctx, req)
							if err != nil {
								b.Fatal(err)
							}
							return resp
						}
						if e == nil {
							e = NewEngine(set.regions)
							resp := run(first)
							build, cntErr = resp.Build, countRelErr(resp.Results[0].Counts, exactCounts())
							resp.Release()
						}
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							off := (i + 1) * slice % len(pts)
							resp := run(PointSet{Pts: pts[off : off+slice], Weights: weights[off : off+slice]})
							resp.Release()
						}
						b.StopTimer()
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slice), "ns/pt")
						b.ReportMetric(float64(build.Microseconds())/1e3, "build-ms")
						b.ReportMetric(cntErr, "cnt-err")
						if s == StrategyACT {
							ran := pts[slice : slice+min(b.N, len(pts)/slice-1)*slice]
							b.ReportMetric(coarseShare(bounded(), d, ran), "coarse/pt")
						}
					})
				}
			}
		}
	}
}

// countRelErr pools a COUNT column's error against the exact one:
// Σ|approx − exact| ÷ Σexact, the repository benchmark's count_rel_err.
func countRelErr(approx, exact []int64) float64 {
	var diff, total int64
	for i, c := range exact {
		diff += max(approx[i]-c, c-approx[i])
		total += c
	}
	return float64(diff) / float64(max(total, 1))
}

// bucketsWithBoundaries marks the level-8 cells — the act arm's cover-table
// radix buckets — that hold a boundary key of the regions' covers at bound.
func bucketsWithBoundaries(regions []Region, d Domain, bound float64) *[1 << 16]bool {
	const shift = 2 * (sfc.MaxLevel - 8)
	var bounded [1 << 16]bool
	for _, rg := range regions {
		a, err := raster.Hierarchical(rg, d, Hilbert, bound, raster.Conservative)
		if err != nil {
			panic(err)
		}
		for _, r := range a.Ranges() {
			bounded[r.Lo>>shift] = true
			if r.Hi < 1<<(2*sfc.MaxLevel)-1 { // Hi+1 is a leaf key
				bounded[(r.Hi+1)>>shift] = true
			}
		}
	}
	return &bounded
}

// coarseShare is the share of the in-domain points among pts whose level-8
// cell holds no boundary key: the points the act arm resolves without a leaf
// key. It is counted here, from the rasterized covers; the engine keeps no
// such counter.
func coarseShare(bounded *[1 << 16]bool, d Domain, pts []Point) float64 {
	in, free := 0, 0
	for _, p := range pts {
		if x, y, ok := d.Coord(p, 8); ok {
			in++
			if !bounded[Hilbert.Encode(8, x, y)] {
				free++
			}
		}
	}
	return float64(free) / float64(in)
}

// BenchmarkAblApprox: construction cost of each approximation kind (§2.1
// ablation; quality numbers come from cmd/spatialbench -experiment
// ablapprox).
func BenchmarkAblApprox(b *testing.B) {
	polys := data.Neighborhoods(11)
	d := data.CityDomain()
	curve := sfc.Hilbert{}
	kinds := []struct {
		name  string
		build func(p *geom.Polygon)
	}{
		{"MBR", func(p *geom.Polygon) { approx.MBR(p) }},
		{"RMBR", func(p *geom.Polygon) { approx.RMBR(p) }},
		{"MBC", func(p *geom.Polygon) { approx.MBC(p) }},
		{"CH", func(p *geom.Polygon) { approx.CH(p) }},
		{"5C", func(p *geom.Polygon) { approx.NCorner(p, 5) }},
		{"CBR", func(p *geom.Polygon) { approx.CBR(p) }},
		{"HR64m", func(p *geom.Polygon) {
			if _, err := approx.HR(p, d, curve, 64); err != nil {
				panic(err)
			}
		}},
	}
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.build(polys[i%len(polys)])
			}
		})
	}
}

// BenchmarkAblCurve: linearization cost per point for the two curves (§3
// ablation; range-fragmentation numbers come from cmd/spatialbench).
func BenchmarkAblCurve(b *testing.B) {
	d := data.CityDomain()
	pts, _ := data.TaxiPoints(1, 10_000)
	for _, curve := range []sfc.Curve{sfc.Morton{}, sfc.Hilbert{}} {
		b.Run(curve.Name(), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				pos, _ := d.LeafPos(curve, pts[i%len(pts)])
				sink += pos
			}
			_ = sink
		})
	}
}

// BenchmarkAblACTStride: the trie-fanout design choice DESIGN.md calls out —
// quadtree levels consumed per trie node trade node count (cache misses)
// against per-node search width.
func BenchmarkAblACTStride(b *testing.B) {
	d := data.CityDomain()
	curve := sfc.Hilbert{}
	regions := data.Regions(data.Neighborhoods(12))
	pts, _ := data.TaxiPoints(1, 50_000)
	positions := make([]uint64, len(pts))
	for i, p := range pts {
		positions[i], _ = d.LeafPos(curve, p)
	}
	for _, stride := range []int{2, 3, 5, 6} {
		aj, err := join.NewACTJoiner(regions, d, curve, 8, stride)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(map[int]string{2: "stride=2", 3: "stride=3", 5: "stride=5", 6: "stride=6"}[stride],
			func(b *testing.B) {
				ps := join.PointSet{Pts: pts}
				for i := 0; i < b.N; i++ {
					if _, err := aj.Aggregate(ps, join.Count); err != nil {
						b.Fatal(err)
					}
				}
			})
	}
	_ = positions
}

// BenchmarkAblRSParams: RadixSpline tuning — spline error trades lookup
// window size against spline size; the paper uses error 32.
func BenchmarkAblRSParams(b *testing.B) {
	f := fig4Setup(b)
	for _, splineErr := range []int{8, 32, 128} {
		idx := rs.Build(f.keys, rs.DefaultRadixBits, splineErr)
		name := map[int]string{8: "err=8", 32: "err=32", 128: "err=128"}[splineErr]
		b.Run(name, func(b *testing.B) {
			var sink int
			for i := 0; i < b.N; i++ {
				sink += idx.CountRange(f.keys[i%len(f.keys)], f.keys[(i+7)%len(f.keys)])
			}
			_ = sink
		})
	}
}

// BenchmarkAblRasterModes: conservative vs centroid uniform rasterization.
func BenchmarkAblRasterModes(b *testing.B) {
	d := data.CityDomain()
	polys := data.Neighborhoods(12)
	for _, mode := range []raster.Mode{raster.Conservative, raster.Centroid} {
		b.Run(mode.String(), func(b *testing.B) {
			level := d.LevelForBound(16)
			for i := 0; i < b.N; i++ {
				raster.Uniform(polys[i%len(polys)], d, sfc.Hilbert{}, level, mode)
			}
		})
	}
}

// BenchmarkMultiAgg: the acceptance benchmark of the unified request API —
// one Do carrying all five aggregates against five sequential single-agg Do
// calls, on the warm resident path (pointidx forced on both sides so the
// measured gap is the shared fold's, not a plan flip's). The single-pass
// form must be ≥ 2× the sequential form: five requests pay five Span
// lookups per cover range where the set pays one.
func BenchmarkMultiAgg(b *testing.B) {
	pts, weights := data.TaxiPoints(1, benchPoints)
	regions := data.Regions(data.Census(13, benchCensus))
	e := NewEngine(regions)
	ds, err := e.RegisterPoints("bench", pts, weights)
	if err != nil {
		b.Fatal(err)
	}
	const bound = 16.0
	ctx := context.Background()
	pidx := StrategyPointIdx
	allAggs := []Agg{Count, Sum, Avg, Min, Max}
	// Warm the cover artifact so both sides measure probes only.
	if _, err := e.Do(ctx, Request{Dataset: ds, Aggs: []Agg{Count}, Bound: bound, Strategy: &pidx, Workers: 1}); err != nil {
		b.Fatal(err)
	}
	b.Run("single-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := e.Do(ctx, Request{Dataset: ds, Aggs: allAggs, Bound: bound, Strategy: &pidx, Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Results) != 5 {
				b.Fatal("short response")
			}
			resp.Release()
		}
	})
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, agg := range allAggs {
				resp, err := e.Do(ctx, Request{Dataset: ds, Aggs: []Agg{agg}, Bound: bound, Strategy: &pidx, Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				resp.Release()
			}
		}
	})
}
