package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"distbound"
	"distbound/internal/cache"
	"distbound/internal/data"
	"distbound/internal/join"
	"distbound/internal/planner"
	"distbound/internal/pointstore"
	"distbound/internal/pointstore/persist"
	"distbound/internal/raster"
	"distbound/internal/sfc"
	"distbound/internal/shard"
)

// layerRun is one per-layer trace run: every layer of the program measured
// from outside, through the entry points its package exports, on the same
// seeded data the end-to-end workloads use. The suite is the same whichever
// workload the driver names — the layers are one program — so every
// per-layer metric is reported on every traced run.
type layerRun struct {
	env     *runEnv
	rep     *report
	tr      *tracer
	regions []distbound.Region
	pts     []distbound.Point
	ws      []float64
	domain  distbound.Domain
	slice   distbound.PointSet // one ad-hoc request's points
	err     error              // first failure of the run, see try
}

func runLayers(env *runEnv) (*report, error) {
	l := &layerRun{env: env, rep: &report{}, tr: newTracer()}
	l.regions, l.pts, l.ws = env.sc.dataset(env.seed)
	l.domain = distbound.DomainForRegions(l.regions...)
	n := env.sc.adhocSlice
	l.slice = distbound.PointSet{Pts: l.pts[:n], Weights: l.ws[:n]}
	for _, step := range []func(){
		l.rasterLayers, l.pointstoreLayers, l.persistLayer, l.streamingJoins,
		l.engineLayers, l.shardOverhead, l.cacheLayer, l.servedLayers,
	} {
		t0 := time.Now()
		step()
		env.printf("  step took %.2fs\n", time.Since(t0).Seconds())
		if l.err != nil {
			return nil, l.err
		}
		if err := env.ctx.Err(); err != nil {
			return nil, err
		}
	}
	env.host.sample()
	l.rep.set("host.chase_ms_min", slices.Min(env.host.chase), "ms")
	l.rep.set("host.chase_ms_med", median(env.host.chase), "ms")
	l.rep.set("host.stream_ms_min", slices.Min(env.host.stream), "ms")
	l.rep.set("host.stream_ms_med", median(env.host.stream), "ms")
	l.rep.set("host.disturbed_passes", float64(env.host.disturbed()), "count")
	path, err := l.tr.write(filepath.Join(filepath.Dir(env.tmp), "out"))
	if err != nil {
		return nil, err
	}
	env.printf("  %d spans written to %s\n", len(l.tr.spans), path)
	return l.rep, nil
}

// try keeps the first error of the run and reports whether err was nil.
// Probes hand closures to timers, so they report failures through here
// instead of through return values.
func (l *layerRun) try(what string, err error) bool {
	if err != nil && l.err == nil {
		l.err = fmt.Errorf("%s: %w", what, err)
	}
	return err == nil
}

// extraRows is block k of rows to append: the same rows serve_ingest's
// cycle k sends.
func (l *layerRun) extraRows(k int) ([]distbound.Point, []float64) {
	return data.TaxiPoints(l.env.seed*100_003+int64(k)+1, l.env.sc.ingestRows)
}

// medianMs times n calls of f and returns the median in ms. A layer probe
// brackets itself with the host kernels, so a disturbed probe shows.
func (l *layerRun) medianMs(n int, f func()) float64 {
	l.env.host.sample()
	xs := make([]float64, n)
	for i := range xs {
		t := time.Now()
		f()
		xs[i] = ms(time.Since(t))
	}
	return median(xs)
}

func secondsOf(f func()) float64 {
	t := time.Now()
	f()
	return time.Since(t).Seconds()
}

// rasterLayers: internal/sfc and internal/raster — what every build
// (cover plan, ACT trie) is made of, and what fixes count_rel_err.
func (l *layerRun) rasterLayers() {
	const n = 1 << 20
	var sink uint64
	h := sfc.Hilbert{}
	t := time.Now()
	for i := uint32(0); i < n; i++ {
		sink += h.Encode(sfc.MaxLevel, i*2654435761, i*40503)
	}
	l.rep.set("sfc.hilbert_ns", float64(time.Since(t).Nanoseconds())/n, "ns")
	_ = sink

	cells := 0
	t = time.Now()
	for _, rg := range l.regions {
		a, err := raster.Hierarchical(rg, l.domain, h, 8, raster.Conservative)
		if !l.try("raster.Hierarchical", err) {
			return
		}
		cells += a.NumCells()
	}
	l.rep.set("raster.hier_us_per_region_e8", float64(time.Since(t).Microseconds())/float64(len(l.regions)), "us")
	l.rep.set("raster.cells_per_region", float64(cells)/float64(len(l.regions)), "count")
}

// pointstoreLayers: internal/pointstore, and internal/join's cover-plan fold
// over it.
func (l *layerRun) pointstoreLayers() {
	var m *pointstore.Mutable
	l.rep.set("pointstore.build_s", secondsOf(func() {
		var err error
		m, err = pointstore.NewMutable(l.pts, l.ws, l.domain, sfc.Hilbert{})
		l.try("pointstore.NewMutable", err)
	}), "s")
	if l.err != nil {
		return
	}
	l.rep.set("pointstore.bytes_per_row", float64(m.MemoryBytes())/float64(m.Len()), "B")

	// Span primitives over the base: a sorted probe list for SpanMulti (the
	// monotone sweep the cover plan runs), random spans for the folds.
	snap := m.Snapshot()
	rng := rand.New(rand.NewSource(l.env.seed))
	const probes = 100_000
	keys := make([]uint64, probes)
	for i := range keys {
		keys[i], _ = l.domain.LeafPos(sfc.Hilbert{}, l.pts[rng.Intn(len(l.pts))])
	}
	slices.Sort(keys)
	out := make([]int, probes)
	l.rep.set("pointstore.spanmulti_ns_per_probe", 1e6*l.medianMs(5, func() { snap.SpanMulti(keys, out) })/probes, "ns")
	los, his := make([]int, probes), make([]int, probes)
	for i := range los {
		los[i] = rng.Intn(snap.BaseLen())
		his[i] = min(snap.BaseLen(), los[i]+1+rng.Intn(4096))
	}
	var fsink float64
	l.rep.set("pointstore.sumspan_ns", 1e6*l.medianMs(5, func() {
		for i := range los {
			fsink += snap.SumSpan(los[i], his[i])
		}
	})/probes, "ns")
	l.rep.set("pointstore.minspan_ns", 1e6*l.medianMs(5, func() {
		for i := range los {
			fsink += snap.MinSpan(los[i], his[i])
		}
	})/probes, "ns")
	_ = fsink

	// The cover-plan fold, warm, one worker, then across a compaction.
	j, err := join.NewPointIdxJoiner(l.regions, m, 16, runtime.GOMAXPROCS(0))
	if !l.try("join.NewPointIdxJoiner", err) {
		return
	}
	results := join.NewResults(aggsAll, len(l.regions))
	fold := func() {
		_, err := j.AggregateMultiInto(l.env.ctx, aggsAll, 1, results)
		l.try("AggregateMultiInto", err)
	}
	fold()
	l.rep.set("join.fold_ms", l.medianMs(15, fold), "ms")

	const blocks = 4
	var ids []uint64
	appendS := secondsOf(func() {
		for k := 0; k < blocks; k++ {
			pts, ws := l.extraRows(k)
			got, err := m.Append(pts, ws)
			l.try("pointstore append", err)
			ids = append(ids, got...)
		}
	})
	if l.err != nil {
		return
	}
	l.rep.set("pointstore.append_us_per_row", 1e6*appendS/float64(len(ids)), "us")
	l.rep.set("pointstore.compact_ms", 1e3*secondsOf(m.Compact), "ms")
	l.rep.set("join.cover_refresh_ms", 1e3*secondsOf(fold), "ms")
	l.rep.set("pointstore.delete_us_per_row", 1e6*secondsOf(func() { m.Delete(ids...) })/float64(len(ids)), "us")
}

// persistLayer: internal/pointstore/persist, on a store of its own.
func (l *layerRun) persistLayer() {
	m, err := pointstore.NewMutable(l.pts, l.ws, l.domain, sfc.Hilbert{})
	if !l.try("pointstore.NewMutable", err) {
		return
	}
	dir := filepath.Join(l.env.tmp, "persist")
	// A long group-commit window separates the log write from the fsync,
	// which Sync then pays alone; the daemon's default syncs every append.
	opts := persist.Options{GroupCommit: time.Hour}
	d, err := persist.Create(dir, m, opts)
	if !l.try("persist.Create", err) {
		return
	}
	const blocks = 4
	rows := 0
	var syncMs []float64
	var appendS float64
	for k := 0; k < blocks; k++ {
		pts, ws := l.extraRows(k)
		appendS += secondsOf(func() {
			_, err := d.Append(pts, ws)
			l.try("persist append", err)
		})
		rows += len(pts)
		syncMs = append(syncMs, 1e3*secondsOf(func() { l.try("persist sync", d.Sync()) }))
	}
	l.rep.set("persist.wal_append_us_per_row", 1e6*appendS/float64(rows), "us")
	l.rep.set("persist.sync_ms", median(syncMs), "ms")
	l.rep.set("persist.checkpoint_ms", 1e3*secondsOf(func() { l.try("persist checkpoint", d.Checkpoint()) }), "ms")
	if !l.try("persist close", d.Close()) {
		return
	}
	disk, err := dirBytes(dir)
	if !l.try("persist dir", err) {
		return
	}
	l.rep.set("persist.disk_bytes_per_row", float64(disk)/float64(m.Len()), "B")
	l.rep.set("persist.open_ms", 1e3*secondsOf(func() {
		re, err := persist.Open(dir, opts)
		if l.try("persist.Open", err) {
			l.try("persist close", re.Close())
		}
	}), "ms")
}

// streamingJoins: internal/join's three streaming joiners — the paper's own
// pipeline, what adhoc_join spends its time in.
func (l *layerRun) streamingJoins() {
	ctx := l.env.ctx
	perPt := func(msPerCall float64) float64 { return 1e6 * msPerCall / float64(len(l.slice.Pts)) }

	var act *join.ACTJoiner
	l.rep.set("join.act_build_s", secondsOf(func() {
		var err error
		act, err = join.NewACTJoiner(l.regions, l.domain, sfc.Hilbert{}, 16, 0)
		l.try("join.NewACTJoiner", err)
	}), "s")
	brj, err := join.NewBRJJoiner(l.regions, l.domain.Bounds(), 64, 0, 1)
	if !l.try("join.NewBRJJoiner", err) {
		return
	}
	rstar := join.NewRStarJoiner(l.regions, 0)

	l.rep.set("join.act_ns_per_pt", perPt(l.medianMs(9, func() {
		_, err := act.AggregateMulti(ctx, l.slice, aggsSums, 1)
		l.try("ACT join", err)
	})), "ns")
	l.rep.set("join.brj_ms", l.medianMs(9, func() {
		_, err := brj.AggregateMulti(ctx, l.slice, adhocShapes[2].aggs, 1)
		l.try("raster join", err)
	}), "ms")
	l.rep.set("join.rstar_ns_per_pt", perPt(l.medianMs(9, func() {
		_, err := rstar.AggregateMulti(ctx, l.slice, aggsCount, 1)
		l.try("R*-tree join", err)
	})), "ns")
}

// do runs one request on e and releases the answer, handing it to use first.
func (l *layerRun) do(e *distbound.Engine, req distbound.Request, use func(*distbound.Response)) {
	l.rep.attempted++
	resp, err := e.Do(l.env.ctx, req)
	if !l.try("Engine.Do", err) {
		return
	}
	if use != nil {
		use(&resp)
	}
	resp.Release()
}

// engineLayers: the root package — Engine.Do on a resident dataset with the
// result cache off (what serve_executed runs), under a delta (what
// serve_ingest runs), on a hit (what serve_repeat runs) — and the planner's
// picks beside it.
func (l *layerRun) engineLayers() {
	e := distbound.NewEngine(l.regions)
	var ds *distbound.Dataset
	l.rep.set("engine.register_s", secondsOf(func() {
		var err error
		ds, err = e.RegisterPoints("layers", l.pts, l.ws)
		l.try("RegisterPoints", err)
	}), "s")
	if l.err != nil {
		return
	}
	defer e.UnregisterPoints("layers")
	e.SetResultCacheCapacity(0)
	pidx := distbound.StrategyPointIdx
	resident := func(s shape) distbound.Request {
		return distbound.Request{Dataset: ds, Aggs: s.aggs, Bound: s.bound, Strategy: &pidx}
	}

	// Cold: the first request at a bound builds its cover plan.
	ranges := 0
	for i, s := range executedShapes {
		l.do(e, resident(s), func(resp *distbound.Response) {
			l.rep.set(fmt.Sprintf("join.cover_build_s_e%g", s.bound), resp.Build.Seconds(), "s")
			if i == 0 {
				l.rep.set("engine.build_ms", ms(resp.Build), "ms")
			}
			ranges += resp.RangesProbed
		})
	}
	l.rep.set("engine.ranges_probed", float64(ranges), "count")
	// Warm, one shape at a time: never blended.
	for i, name := range []string{"count_e16", "sums_e4", "all_e8"} {
		req := resident(executedShapes[i])
		l.rep.set("engine.do_"+name+"_ms", l.medianMs(15, func() { l.do(e, req, nil) }), "ms")
	}

	// Tracing overhead: the same warm request with and without a span.
	req := resident(executedShapes[0])
	bare := l.medianMs(200, func() { l.do(e, req, nil) })
	traced := l.medianMs(200, func() {
		id := l.tr.begin("engine.do", -1, -1)
		l.do(e, req, nil)
		l.tr.end(id)
	})
	l.rep.set("trace.overhead_ratio", traced/bare, "ratio")

	// Under a delta: one block of rows appended, not compacted.
	pts, ws := l.extraRows(0)
	if _, err := ds.Append(pts, ws); !l.try("Dataset.Append", err) {
		return
	}
	var delta []float64
	probed, fallbacks := 0, 0
	for _, s := range executedShapes {
		req := resident(s)
		delta = append(delta, l.medianMs(9, func() {
			l.do(e, req, func(resp *distbound.Response) { probed = resp.DeltaProbed })
		}))
		// Unforced, the planner should still pick the resident probe.
		req.Strategy, req.Repetitions = nil, 1000
		l.do(e, req, func(resp *distbound.Response) {
			if resp.Strategy != pidx {
				fallbacks++
			}
		})
	}
	l.rep.set("engine.do_delta_ms", meanOf(delta), "ms")
	l.rep.set("engine.delta_probed", float64(probed), "count")
	l.rep.set("engine.delta_fallbacks", float64(fallbacks), "count")

	l.plannerLayer(e, ds)

	// A hit: the cache back on, the same request again.
	e.SetResultCacheCapacity(distbound.DefaultResultCacheCapacity)
	l.do(e, req, nil)
	l.rep.set("engine.hit_do_ns", 1e6*l.medianMs(2000, func() { l.do(e, req, nil) }), "ns")
}

// plannerLayer: internal/planner — the cost of one decision, and its picks
// against every strategy forced in turn, on the ad-hoc shapes and on a
// resident dataset carrying a delta. Regret is the wall of the chosen
// strategy over the wall of the best one; 1 means the planner was right.
func (l *layerRun) plannerLayer(e *distbound.Engine, ds *distbound.Dataset) {
	model := planner.DefaultCostModel()
	stats := planner.ComputeStats(l.regions)
	q := planner.Query{NumPoints: len(l.slice.Pts), Regions: l.regions, Bound: 16, Repetitions: 1000, Aggs: aggsSums, Stats: &stats}
	var plan planner.Plan
	l.rep.set("planner.choose_us", 1e3*l.medianMs(1000, func() { model.ChooseInto(q, &plan) }), "us")

	picks := map[distbound.Strategy]int{}
	var regrets []float64
	regret := func(base distbound.Request, candidates []distbound.Strategy) {
		var chosen distbound.Strategy
		l.do(e, base, func(resp *distbound.Response) { chosen = resp.Strategy })
		picks[chosen]++
		var chosenMs float64
		var walls []float64
		for _, st := range candidates {
			forced := base
			forced.Strategy = &st
			w := l.medianMs(3, func() { l.do(e, forced, nil) })
			if st == chosen {
				chosenMs = w
			}
			walls = append(walls, w)
		}
		regrets = append(regrets, chosenMs/slices.Min(walls))
	}
	streaming := func(s shape) []distbound.Strategy {
		switch {
		case s.bound == 0:
			return []distbound.Strategy{distbound.StrategyExact}
		case join.ExtremeIn(s.aggs):
			return []distbound.Strategy{distbound.StrategyExact, distbound.StrategyACT}
		}
		return []distbound.Strategy{distbound.StrategyExact, distbound.StrategyACT, distbound.StrategyBRJ}
	}
	for _, s := range adhocShapes {
		regret(distbound.Request{Points: l.slice, Aggs: s.aggs, Bound: s.bound, Repetitions: s.reps}, streaming(s))
	}
	for _, s := range []shape{{aggs: aggsCount, bound: 16}, {aggs: aggsSums, bound: 16}} {
		regret(distbound.Request{Dataset: ds, Aggs: s.aggs, Bound: s.bound, Repetitions: 1000},
			append(streaming(s), distbound.StrategyPointIdx))
	}
	l.rep.set("planner.regret", meanOf(regrets), "ratio")
	l.rep.set("planner.pick_exact", float64(picks[distbound.StrategyExact]), "count")
	l.rep.set("planner.pick_act", float64(picks[distbound.StrategyACT]), "count")
	l.rep.set("planner.pick_brj", float64(picks[distbound.StrategyBRJ]), "count")
	l.rep.set("planner.pick_pointidx", float64(picks[distbound.StrategyPointIdx]), "count")
}

// shardOverhead: one shard against no shard, like for like. Both sit on a
// delta that grows by one row before every request, because a mutation is
// the only way to make a sharded backend execute: its per-shard engine
// caches cannot be turned off from outside.
func (l *layerRun) shardOverhead() {
	ctx := l.env.ctx
	s1, _, err := shard.New("n1", l.regions, l.pts, l.ws, 1)
	if !l.try("shard.New", err) {
		return
	}
	defer s1.Close()
	e := distbound.NewEngine(l.regions)
	ds, err := e.RegisterPoints("n0", l.pts, l.ws)
	if !l.try("RegisterPoints", err) {
		return
	}
	defer e.UnregisterPoints("n0")
	e.SetResultCacheCapacity(0)
	pidx := distbound.StrategyPointIdx
	sreq := shard.Request{Aggs: aggsSums, Bound: 16}
	ereq := distbound.Request{Dataset: ds, Aggs: aggsSums, Bound: 16, Strategy: &pidx}
	_, err = s1.Do(ctx, sreq)
	l.try("Sharded.Do", err)
	l.do(e, ereq, nil)
	pts, ws := l.extraRows(0)
	var viaShard, viaEngine []float64
	for k := 0; k < 15 && l.err == nil; k++ {
		_, err := s1.Append(pts[k:k+1], ws[k:k+1])
		l.try("Sharded.Append", err)
		viaShard = append(viaShard, 1e3*secondsOf(func() {
			_, err := s1.Do(ctx, sreq)
			l.try("Sharded.Do", err)
		}))
		_, err = ds.Append(pts[k:k+1], ws[k:k+1])
		l.try("Dataset.Append", err)
		viaEngine = append(viaEngine, 1e3*secondsOf(func() { l.do(e, ereq, nil) }))
	}
	l.rep.set("shard.overhead_n1_ms", median(viaShard)-median(viaEngine), "ms")
}

// cacheLayer: internal/cache — the LRU both result caches sit on.
func (l *layerRun) cacheLayer() {
	c := cache.NewShardedLRU[int, int](1024, nil)
	for k := 0; k < 512; k++ {
		c.Put(k, k)
	}
	const gets = 1 << 20
	sink := 0
	t := time.Now()
	for i := 0; i < gets; i++ {
		v, _ := c.Get(i & 511)
		sink += v
	}
	l.rep.set("cache.hit_ns", float64(time.Since(t).Nanoseconds())/gets, "ns")
	_ = sink
}

func meanOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
