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
// engine rasterizes it once, the router and every dataset's joiner hold that
// one *CoverSet, and the set's bytes are charged once while each dataset
// reports only its own state.
func TestCoverSetSharedAcrossDatasets(t *testing.T) {
	e, dss := shareFixture(t, 3, 4000)
	bounds := []float64{16, 64, 256}
	for _, b := range bounds {
		for _, ds := range dss {
			resp := pointIdxDo(t, e, ds, b, Count, Sum)
			resp.Release()
		}
	}
	if _, cover := e.CacheStats(); cover.Builds != int64(len(bounds)) {
		t.Fatalf("%d cover builds for %d bounds × %d datasets, want one per bound", cover.Builds, len(bounds), len(dss))
	}
	setBytes := 0
	for _, b := range bounds {
		ce, ok := peekReady(e.covers, b)
		if !ok {
			t.Fatalf("bound %g not resident", b)
		}
		setBytes += ce.set.MemoryBytes()
		routed, err := e.CoverSet(context.Background(), b, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, ds := range dss {
			j := ce.peek(ds.src)
			if j == nil {
				t.Fatalf("bound %g: dataset %d has no joiner", b, i)
			}
			if j.CoverSet != routed {
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

// TestCoverCacheEvictsByBound rotates four datasets through nine bounds
// under the default capacity of eight. Capacity counts bounds: every bound
// is built once per lap — not once per dataset — the least recently used
// bound leaves with all four joiners, and no answer ever comes from a joiner
// paired with another bound's plan (each is compared against an engine that
// never evicts).
func TestCoverCacheEvictsByBound(t *testing.T) {
	e, dss := shareFixture(t, 4, 3000)
	ref, refDss := shareFixture(t, 4, 3000)
	bounds := []float64{16, 24, 32, 48, 64, 96, 128, 192, 256}
	ref.covers = cache.New[float64, *coverEntry](len(bounds))
	if len(bounds) != coverCacheCapacity+1 {
		t.Fatalf("fixture needs capacity+1 bounds, have %d", len(bounds))
	}
	const laps = 2
	aggs := []Agg{Count, Sum, Min, Max}
	for lap := 0; lap < laps; lap++ {
		for _, b := range bounds {
			for i, ds := range dss {
				got := pointIdxDo(t, e, ds, b, aggs...)
				want := pointIdxDo(t, ref, refDss[i], b, aggs...)
				for k, agg := range aggs {
					testutil.CheckIdentical(t, fmt.Sprintf("lap %d bound %g dataset %d %v", lap, b, i, agg), want.Results[k], got.Results[k])
				}
				got.Release()
				want.Release()
			}
			ce, ok := peekReady(e.covers, b)
			if !ok {
				t.Fatalf("bound %g not resident right after its queries", b)
			}
			for i, ds := range dss {
				if j := ce.peek(ds.src); j == nil || j.Bound() != b {
					t.Fatalf("bound %g: dataset %d's joiner is %v", b, i, j)
				}
			}
		}
	}
	// Cyclic access to capacity+1 keys misses every time under LRU.
	_, cover := e.CacheStats()
	wantBuilds := int64(laps * len(bounds))
	if cover.Builds != wantBuilds || cover.Evictions != wantBuilds-coverCacheCapacity {
		t.Errorf("builds %d evictions %d, want %d and %d: capacity must count bounds, not (dataset, bound) pairs",
			cover.Builds, cover.Evictions, wantBuilds, wantBuilds-coverCacheCapacity)
	}
	if coverReady(e, bounds[0]) || !coverReady(e, bounds[1]) {
		t.Error("eviction did not take the least recently used bound")
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

// TestUnregisterReleasesStore: unregistering drops the dataset's joiners at
// once — its store becomes collectable — while the cover sets stay cached
// for the datasets that remain; and a background refresh that loses the race
// with the unregister finds nothing to refresh instead of re-attaching.
func TestUnregisterReleasesStore(t *testing.T) {
	e, dss := shareFixture(t, 2, 4000)
	bounds := []float64{16, 64}
	for _, b := range bounds {
		for _, ds := range dss {
			resp := pointIdxDo(t, e, ds, b, Count, Sum)
			resp.Release()
		}
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(dss[0].src, func(*pointstore.Mutable) { close(collected) })
	dead := dss[0]
	if !e.UnregisterPoints(dead.Name()) {
		t.Fatal("dataset was not registered")
	}
	for _, b := range bounds {
		ce, ok := peekReady(e.covers, b)
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
	if ce, _ := peekReady(e.covers, bounds[0]); ce.joiner(e, dead) == nil {
		t.Fatal("the late request got no joiner to answer from")
	}
	for _, b := range bounds {
		if ce, _ := peekReady(e.covers, b); ce.peek(dead.src) != nil {
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
	resp := pointIdxDo(t, e, dss[1], bounds[0], Count, Sum, Min)
	if after := coverBuilds(e); after != before || resp.RangesProbed == 0 {
		// Min was never asked for, so this read widens the survivor's own
		// partials — from the cover set that stayed cached.
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
	e.UnregisterPoints(dss[0].Name())
	wg.Wait()
	for _, b := range bounds {
		if ce, ok := peekReady(e.covers, b); ok && ce.peek(dss[0].src) != nil {
			t.Errorf("bound %g: the unregistered dataset is still attached", b)
		}
	}
}

func coverBuilds(e *Engine) int64 {
	_, cover := e.CacheStats()
	return cover.Builds
}

// coverReady reports whether the bound's cover set is resident and built.
func coverReady(e *Engine, bound float64) bool {
	_, ok := peekReady(e.covers, bound)
	return ok
}
