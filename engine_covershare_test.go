package distbound

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"distbound/internal/cache"
	"distbound/internal/data"
	"distbound/internal/pointstore"
	"distbound/internal/raster"
	"distbound/internal/testutil"
)

// shareFixture registers n disjoint slices of one point pool as n datasets
// of one engine — the shape internal/shard gives it.
func shareFixture(t *testing.T, n, per int) (*Engine, []*Dataset) {
	t.Helper()
	pts, ws := data.TaxiPoints(61, n*per)
	e := NewEngine(dataRegions(62, 4, 4, 12))
	dss := make([]*Dataset, n)
	for i := range dss {
		ds, err := e.RegisterPoints(fmt.Sprintf("d%d", i), pts[i*per:(i+1)*per], ws[i*per:(i+1)*per])
		if err != nil {
			t.Fatal(err)
		}
		dss[i] = ds
	}
	return e, dss
}

func pointIdxDo(t *testing.T, e *Engine, ds *Dataset, bound float64, aggs ...Agg) Response {
	t.Helper()
	pidx := StrategyPointIdx
	resp, err := e.Do(context.Background(), Request{Dataset: ds, Aggs: aggs, Bound: bound, Strategy: &pidx, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCoverSetSharedAcrossDatasets: however many datasets query a bound, the
// engine rasterizes its level once, every dataset's joiner holds the cache
// entry's one *CoverSet, and the set's bytes are charged once while each
// dataset reports only its own state. The bounds go coarse-first, so no ready
// level is finer than the next one asked for and each is built and served at
// its own level.
func TestCoverSetSharedAcrossDatasets(t *testing.T) {
	e, dss := shareFixture(t, 3, 4000)
	bounds := []float64{256, 64, 16}
	for _, b := range bounds {
		for _, ds := range dss {
			resp := pointIdxDo(t, e, ds, b, Count, Sum)
			if want := ownBound(e, b); resp.ServedBound != want {
				t.Fatalf("bound %g served at %g m, want its own level's %g m", b, resp.ServedBound, want)
			}
			resp.Release()
		}
	}
	if cover := e.CacheStats(); cover.Builds != int64(len(bounds)) {
		t.Fatalf("%d cover builds for %d bounds × %d datasets, want one per bound", cover.Builds, len(bounds), len(dss))
	}
	setBytes := 0
	for _, b := range bounds {
		ce, ok := coverAt(e, b)
		if !ok {
			t.Fatalf("bound %g not resident", b)
		}
		setBytes += ce.set.MemoryBytes()
		for i, ds := range dss {
			j := ce.peek(ds.src)
			if j == nil {
				t.Fatalf("bound %g: dataset %d has no joiner", b, i)
			}
			if j.CoverSet != ce.set {
				t.Errorf("bound %g: dataset %d probes its own copy of the cover table", b, i)
			}
		}
	}
	if got := e.CoverBytes(); got != setBytes {
		t.Errorf("CoverBytes %d, want the %d B of the three sets counted once", got, setBytes)
	}
	for i, ds := range dss {
		if st := ds.Stats().CoverStateBytes; st <= 0 || st >= setBytes {
			t.Errorf("dataset %d reports %d B of state beside %d B of shared sets", i, st, setBytes)
		}
	}
}

// TestCoverCacheEvictsByBound rotates four datasets through nine bounds on
// nine levels under the default capacity of eight, coarse-first, so each lap
// asks for a level no ready one is finer than. Capacity counts levels: the
// first lap builds every level once — not once per dataset — and the least
// recently used level, the coarsest, leaves with all four joiners. The second
// lap builds nothing: the evicted level's bound is served by the next finer
// level, and every other bound by its own. No answer ever comes from a joiner
// paired with another level's plan: each is compared, at the bound it was
// served at, against an engine that never evicts.
func TestCoverCacheEvictsByBound(t *testing.T) {
	e, dss := shareFixture(t, 4, 3000)
	ref, refDss := shareFixture(t, 4, 3000)
	bounds := []float64{4096, 2048, 1024, 512, 256, 128, 64, 32, 16}
	ref.covers = cache.New[int, *Cover](len(bounds))
	if len(bounds) != coverCacheCapacity+1 {
		t.Fatalf("fixture needs capacity+1 bounds, have %d", len(bounds))
	}
	const laps = 2
	aggs := []Agg{Count, Sum, Min, Max}
	for lap := 0; lap < laps; lap++ {
		for bi, b := range bounds {
			served := ownBound(e, b)
			if lap > 0 && bi == 0 {
				served = ownBound(e, bounds[1]) // evicted in lap 0: the next finer level serves it
			}
			for i, ds := range dss {
				got := pointIdxDo(t, e, ds, b, aggs...)
				if got.ServedBound != served {
					t.Fatalf("lap %d bound %g dataset %d: served at %g m, want %g m", lap, b, i, got.ServedBound, served)
				}
				want := pointIdxDo(t, ref, refDss[i], got.ServedBound, aggs...)
				for k, agg := range aggs {
					testutil.CheckIdentical(t, fmt.Sprintf("lap %d bound %g dataset %d %v", lap, b, i, agg), want.Results[k], got.Results[k])
				}
				got.Release()
				want.Release()
			}
			ce, ok := coverAt(e, served)
			if !ok {
				t.Fatalf("lap %d bound %g: the level serving it is not resident right after its queries", lap, b)
			}
			for i, ds := range dss {
				if j := ce.peek(ds.src); j == nil || j.CoverSet != ce.set {
					t.Fatalf("lap %d bound %g: dataset %d's joiner is %v", lap, b, i, j)
				}
			}
		}
		if cover := e.CacheStats(); cover.Builds != int64(len(bounds)) || cover.Evictions != 1 {
			t.Errorf("after lap %d: builds %d evictions %d, want %d and 1: capacity must count levels, not (dataset, level) pairs, and a resident finer level serves the evicted one",
				lap, cover.Builds, cover.Evictions, len(bounds))
		}
		if coverReady(e, bounds[0]) || !coverReady(e, bounds[1]) {
			t.Errorf("after lap %d: eviction did not take the least recently used level, or the lap rebuilt it", lap)
		}
	}
}

// TestAdhocACTSharesResidentCoverSet: the ad-hoc act join answers from the
// cover cache, so a resident read at a bound, a forced act read and a
// planned act read at the same bound build one cover set between them.
func TestAdhocACTSharesResidentCoverSet(t *testing.T) {
	e, dss := shareFixture(t, 1, 4000)
	resp := pointIdxDo(t, e, dss[0], 16, Count, Sum)
	resp.Release()
	pts, ws := data.TaxiPoints(63, 2000)
	ps := PointSet{Pts: pts, Weights: ws}
	act := StrategyACT
	for _, req := range []Request{
		{Points: ps, Aggs: []Agg{Count, Sum, Min}, Bound: 16, Strategy: &act, Workers: 1},
		{Points: ps, Aggs: []Agg{Count, Sum, Avg}, Bound: 16},
	} {
		resp, err := e.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Strategy != StrategyACT {
			t.Fatalf("request ran %v, want act", resp.Strategy)
		}
		resp.Release()
	}
	if got := coverBuilds(e); got != 1 {
		t.Errorf("%d cover builds for one bound read resident, forced act and planned act; want 1", got)
	}
}

// TestServedLevelIsTheCoarsestFinerReady: a level is a floor. With three
// levels resident, a bound is served by its own level when that is ready, by
// the coarsest ready level finer than it otherwise — for resident and ad-hoc
// act reads alike — and only a bound finer than every ready level builds.
// BRJ serves the bound itself and the exact join 0.
func TestServedLevelIsTheCoarsestFinerReady(t *testing.T) {
	e, dss := shareFixture(t, 1, 4000)
	for _, b := range []float64{256, 64, 16} {
		resp := pointIdxDo(t, e, dss[0], b, Count)
		resp.Release()
	}
	pts, ws := data.TaxiPoints(64, 2000)
	ps := PointSet{Pts: pts, Weights: ws}
	act, brj, exact := StrategyACT, StrategyBRJ, StrategyExact
	for _, c := range []struct {
		bound, servedBy float64
	}{
		{256, 256}, {512, 256}, {128, 64}, {64, 64}, {32, 16}, {16, 16},
	} {
		resp := pointIdxDo(t, e, dss[0], c.bound, Count)
		if want := ownBound(e, c.servedBy); resp.ServedBound != want {
			t.Errorf("resident bound %g served at %g m, want %g's level, %g m", c.bound, resp.ServedBound, c.servedBy, want)
		}
		resp.Release()
		resp, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}, Bound: c.bound, Strategy: &act, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want := ownBound(e, c.servedBy); resp.ServedBound != want {
			t.Errorf("act bound %g served at %g m, want %g's level, %g m", c.bound, resp.ServedBound, c.servedBy, want)
		}
	}
	if got := coverBuilds(e); got != 3 {
		t.Errorf("%d cover builds, want the 3 levels asked for coarse-first", got)
	}
	resp := pointIdxDo(t, e, dss[0], 8, Count)
	if resp.ServedBound != ownBound(e, 8) || coverBuilds(e) != 4 {
		t.Errorf("bound 8, finer than every ready level: served at %g m after %d builds, want its own level's %g m after 4",
			resp.ServedBound, coverBuilds(e), ownBound(e, 8))
	}
	resp.Release()
	for _, c := range []struct {
		strategy *Strategy
		want     float64
	}{{&brj, 32}, {&exact, 0}} {
		resp, err := e.Do(context.Background(), Request{Points: ps, Aggs: []Agg{Count}, Bound: 32, Strategy: c.strategy, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if resp.ServedBound != c.want {
			t.Errorf("%v at bound 32 reports served_bound %g, want %g", *c.strategy, resp.ServedBound, c.want)
		}
	}
}

// TestPinnedCoverSurvivesEviction is a scatter's view of the engine: three
// datasets read one bound pinned to the cover resolved once for it, while
// finer builds complete and evict that cover between the reads. Every pinned
// read answers from the resolved level — identical to a never-evicting
// engine there — while an unpinned read at the same bound moves to the
// coarsest finer level now ready. A pin of another engine's cover, or of one
// coarser than the bound, is refused.
func TestPinnedCoverSurvivesEviction(t *testing.T) {
	e, dss := shareFixture(t, 3, 3000)
	ref, refDss := shareFixture(t, 3, 3000)
	e.covers = cache.New[int, *Cover](2)
	ctx := context.Background()
	aggs := []Agg{Count, Sum, Min, Max}
	resp := pointIdxDo(t, e, dss[0], 16, Count)
	resp.Release()
	cov, err := e.Cover(ctx, 64)
	if err != nil {
		t.Fatal(err)
	}
	if cov.ServedBound() != ownBound(e, 16) || coverBuilds(e) != 1 {
		t.Fatalf("bound 64 resolved to %g m after %d builds, want level 16's %g m and no build", cov.ServedBound(), coverBuilds(e), ownBound(e, 16))
	}
	pinned := func(i int) Response {
		t.Helper()
		resp, err := e.Do(ctx, Request{Dataset: dss[i], Aggs: aggs, Bound: 64, Cover: cov, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	answers := []Response{pinned(0)}
	for _, b := range []float64{8, 4} { // two finer builds; the second evicts level 16
		resp := pointIdxDo(t, e, dss[1], b, Count)
		resp.Release()
	}
	if coverReady(e, 16) {
		t.Fatal("level 16 is still resident: the test needs it evicted between the pinned reads")
	}
	answers = append(answers, pinned(1), pinned(2))
	for i, got := range answers {
		if got.ServedBound != cov.ServedBound() {
			t.Fatalf("dataset %d: pinned read served at %g m, want the pin's %g m", i, got.ServedBound, cov.ServedBound())
		}
		want := pointIdxDo(t, ref, refDss[i], 16, aggs...)
		for k, agg := range aggs {
			testutil.CheckIdentical(t, fmt.Sprintf("dataset %d %v", i, agg), want.Results[k], got.Results[k])
		}
		want.Release()
	}
	if resp := pointIdxDo(t, e, dss[0], 64, Count); resp.ServedBound != ownBound(e, 8) {
		t.Errorf("unpinned bound 64 served at %g m, want level 8's %g m, the coarsest finer one ready", resp.ServedBound, ownBound(e, 8))
	}
	for _, req := range []Request{
		{Dataset: dss[0], Aggs: aggs, Bound: 8, Cover: cov},
		{Dataset: refDss[0], Aggs: aggs, Bound: 64, Cover: cov},
	} {
		eng := e
		if req.Dataset == refDss[0] {
			eng = ref
		}
		if _, err := eng.Do(ctx, req); err == nil {
			t.Errorf("a pin coarser than its bound or of another engine was answered: bound %g", req.Bound)
		}
	}
}

// TestUnregisterReleasesStore: unregistering drops the dataset's joiners at
// once — its store becomes collectable — while the cover sets stay cached
// for the datasets that remain; and a background refresh that loses the race
// with the unregister finds nothing to refresh instead of re-attaching.
func TestUnregisterReleasesStore(t *testing.T) {
	e, dss := shareFixture(t, 2, 4000)
	bounds := []float64{64, 16} // coarse-first: both levels are built
	for _, b := range bounds {
		for _, ds := range dss {
			resp := pointIdxDo(t, e, ds, b, Count, Sum)
			resp.Release()
		}
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(dss[0].src, func(*pointstore.Mutable) { close(collected) })
	dead := dss[0]
	if !e.UnregisterPoints(dead.name) {
		t.Fatal("dataset was not registered")
	}
	for _, b := range bounds {
		ce, ok := coverAt(e, b)
		if !ok {
			t.Fatalf("bound %g left the cache with the dataset", b)
		}
		if ce.peek(dead.src) != nil {
			t.Errorf("bound %g still holds the unregistered dataset's joiner", b)
		}
	}
	dead.refreshJoiners() // the compaction goroutine's late refresh
	// A request that passed checkDataset before the unregister reaches the
	// joiner lookup after it: it is answered, and pins nothing.
	if ce, _ := coverAt(e, bounds[0]); ce.joiner(e, dead) == nil {
		t.Fatal("the late request got no joiner to answer from")
	}
	for _, b := range bounds {
		if ce, _ := coverAt(e, b); ce.peek(dead.src) != nil {
			t.Errorf("bound %g: the unregistered dataset was re-attached", b)
		}
	}
	dss[0], dead = nil, nil
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("the unregistered dataset's store is still reachable")
		case <-time.After(10 * time.Millisecond):
		}
	}
	before := coverBuilds(e)
	if n, err := dss[1].Delete(0); n != 1 || err != nil {
		t.Fatalf("Delete = (%d, %v), want one live row deleted", n, err)
	}
	resp := pointIdxDo(t, e, dss[1], bounds[0], Count, Sum, Min)
	if after := coverBuilds(e); after != before || resp.RangesProbed == 0 {
		// The delete changed the survivor's base rows, so this read refills
		// its own partials — from the cover set that stayed cached.
		t.Errorf("survivor rebuilt covers (%d → %d builds) or did no fill (%d ranges probed)", before, after, resp.RangesProbed)
	}
	resp.Release()
}

// TestUnregisterRacesQueries: queries in flight on a dataset while it is
// unregistered are answered or refused, and whichever side finishes last the
// dataset ends up attached to no bound. Run under -race.
func TestUnregisterRacesQueries(t *testing.T) {
	e, dss := shareFixture(t, 2, 2000)
	bounds := []float64{32, 64, 128}
	pidx := StrategyPointIdx
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 30; i++ {
				resp, err := e.Do(context.Background(), Request{Dataset: dss[0], Aggs: []Agg{Count}, Bound: bounds[(g+i)%len(bounds)], Strategy: &pidx, Workers: 1})
				if err != nil {
					return // unregistered under us: refused from here on
				}
				resp.Release()
			}
		}(g)
	}
	close(start)
	e.UnregisterPoints(dss[0].name)
	wg.Wait()
	for _, b := range bounds {
		if ce, ok := coverAt(e, b); ok && ce.peek(dss[0].src) != nil {
			t.Errorf("bound %g: the unregistered dataset is still attached", b)
		}
	}
}

func coverBuilds(e *Engine) int64 {
	cover := e.CacheStats()
	return cover.Builds
}

// ownBound is the cell diagonal of bound's own level — the served bound when
// that level's cover serves it.
func ownBound(e *Engine, bound float64) float64 {
	level, err := raster.BoundLevel(e.domain, bound)
	if err != nil {
		panic(err)
	}
	return e.domain.CellDiagonal(level)
}

// coverReady reports whether the cover set keyed on the bound's own level is
// resident and built.
func coverReady(e *Engine, bound float64) bool {
	_, ok := coverAt(e, bound)
	return ok
}
