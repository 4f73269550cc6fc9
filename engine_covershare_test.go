package distbound

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"distbound/internal/data"
	"distbound/internal/join"
	"distbound/internal/pointstore"
	"distbound/internal/raster"
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
			j := ds.joiners[ce.level].Load()
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

// TestUnregisterReleasesStore: unregistering clears the dataset's joiners and
// no cover references a dataset, so its store becomes collectable — even
// after a late request attached a joiner to the released handle and a late
// background refresh ran — while the cover sets stay cached for the datasets
// that remain.
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
		if !coverReady(e, b) {
			t.Fatalf("bound %g left the cache with the dataset", b)
		}
	}
	dead.eachJoiner(func(*join.PointIdxJoiner) { t.Error("the unregistered dataset still holds a joiner") })
	// A request that passed checkDataset before the unregister reaches the
	// joiner lookup after it: it is answered, from a joiner only the released
	// handle holds.
	if ce, _ := coverAt(e, bounds[0]); dead.joiner(ce) == nil {
		t.Fatal("the late request got no joiner to answer from")
	}
	dead.refreshJoiners() // the compaction goroutine's late refresh
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
// unregistered are answered or refused, and every request issued after the
// unregister returned is refused. Run under -race.
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
	for _, b := range bounds {
		if _, err := e.Do(context.Background(), Request{Dataset: dss[0], Aggs: []Agg{Count}, Bound: b, Strategy: &pidx, Workers: 1}); err == nil {
			t.Errorf("bound %g: a request issued after the unregister was answered", b)
		}
	}
	wg.Wait()
}

// TestJoinerRacesSlotClears: a request that passed checkDataset before
// UnregisterPoints reaches the joiner lookup while the unregister clears the
// dataset's slots; it always gets a joiner to answer from, never nil. Run
// under -race.
func TestJoinerRacesSlotClears(t *testing.T) {
	e, dss := shareFixture(t, 1, 500)
	resp := pointIdxDo(t, e, dss[0], 64, Count)
	resp.Release()
	c, ok := coverAt(e, 64)
	if !ok {
		t.Fatal("bound 64's cover is not resident")
	}
	ds := dss[0]
	stop := make(chan struct{})
	var cleared sync.WaitGroup
	cleared.Add(1)
	go func() {
		defer cleared.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ds.joiners[c.level].Store(nil)
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if ds.joiner(c) == nil {
					t.Error("a request racing the slot clear got a nil joiner")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	cleared.Wait()
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
