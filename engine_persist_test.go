package distbound

import (
	"context"
	"strings"
	"testing"
	"time"

	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/testutil"
	"distbound/internal/testutil/errorfs"
)

// persistFixture persists the mutated request fixture under a fresh
// directory and keeps mutating afterwards, so the on-disk state is a
// checkpointed base plus a live write-ahead-log tail of appends and
// deletes — the least convenient shape for recovery.
func persistFixture(t *testing.T, cfg PersistConfig) (*Engine, *Dataset, PointSet, string) {
	t.Helper()
	e, ds, ps := requestFixture(t)
	dir := t.TempDir()
	if err := ds.Persist(dir, cfg); err != nil {
		t.Fatal(err)
	}
	ids, err := ds.Append(ps.Pts[:300], ps.Weights[:300])
	if err != nil {
		t.Fatal(err)
	}
	ds.Delete(ids[:70]...)
	ds.Delete(20, 21, 22)
	return e, ds, ps, dir
}

// TestReleasedHandleRefusesWrites: once UnregisterPoints has released a
// handle, Append, Delete and Compact on it fail with an error naming the
// dataset and write nothing: not to its store, and for a durable dataset not
// to its log or its snapshot, so the directory reopens to the state at the
// unregister.
func TestReleasedHandleRefusesWrites(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(map[bool]string{false: "in-memory", true: "durable"}[durable], func(t *testing.T) {
			var e *Engine
			var ds *Dataset
			var ps PointSet
			var dir string
			if durable {
				e, ds, ps, dir = persistFixture(t, PersistConfig{})
			} else {
				e, ds, ps = requestFixture(t)
			}
			before := ds.Stats()
			if !e.UnregisterPoints(ds.name) {
				t.Fatal("the dataset was not registered")
			}
			named := func(err error) bool { return err != nil && strings.Contains(err.Error(), `"`+ds.name+`"`) }
			if ids, err := ds.Append(ps.Pts[:10], ps.Weights[:10]); !named(err) || ids != nil {
				t.Errorf("Append on a released handle returned %v, %v; want an error naming %q", ids, err, ds.name)
			}
			if n, err := ds.Delete(0, 1, 2); !named(err) || n != 0 {
				t.Errorf("Delete on a released handle returned %d, %v; want an error naming %q", n, err, ds.name)
			}
			if err := ds.Compact(); !named(err) {
				t.Errorf("Compact on a released handle returned %v; want an error naming %q", err, ds.name)
			}
			if st := ds.Stats(); st.Live != before.Live || st.Epoch != before.Epoch || st.Generation != before.Generation ||
				st.WALRecords != before.WALRecords || st.CheckpointErr != nil {
				t.Errorf("a refused write changed the store: %+v, was %+v", st, before)
			}
			if !durable {
				return
			}
			reopened, err := NewEngine(e.regions).OpenDataset("reopened", dir, PersistConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.e.UnregisterPoints("reopened")
			if n := reopened.Len(); n != before.Live {
				t.Errorf("the directory reopens with %d live points, want the %d at the unregister", n, before.Live)
			}
		})
	}
}

// TestOpenDatasetServesIdenticalResults is the durability acceptance
// criterion at the query layer: an engine restarted from disk — snapshot
// plus replayed log tail — answers resident requests bit-identically to the
// pre-shutdown engine, for every strategy and several bounds.
func TestOpenDatasetServesIdenticalResults(t *testing.T) {
	// Open reads, checksums and decodes the whole snapshot; the subtest
	// name is kept from when a mapped load path ran beside it.
	t.Run("fullload", func(t *testing.T) {
		e, ds, _, dir := persistFixture(t, PersistConfig{})
		ctx := context.Background()

		e2 := NewEngine(e.regions)
		ds2, err := e2.OpenDataset("req-recovered", dir, PersistConfig{})
		if err != nil {
			t.Fatal(err)
		}
		st := ds2.Stats()
		if !st.Durable || st.RecoveryWall <= 0 || st.SnapshotBytes <= 0 {
			t.Fatalf("recovered dataset stats not durable: %+v", st)
		}
		if st.WALRecords != 3 {
			t.Errorf("recovered %d log records, the fixture wrote 3", st.WALRecords)
		}

		for _, strat := range []Strategy{StrategyExact, StrategyACT, StrategyBRJ, StrategyPointIdx} {
			strat := strat
			aggs := []Agg{Count, Sum, Avg, Min, Max}
			if strat == StrategyBRJ {
				aggs = []Agg{Count, Sum, Avg}
			}
			bounds := []float64{16, 64}
			if strat == StrategyExact || strat == StrategyPointIdx {
				bounds = []float64{4, 16, 64} // no raster cost: sweep finer
			}
			if raceEnabled {
				// The parity logic is identical per cell; one bound per
				// strategy keeps the root package inside CI's race budget.
				bounds = bounds[len(bounds)-1:]
			}
			for _, bound := range bounds {
				want, err := e.Do(ctx, Request{Dataset: ds, Aggs: aggs, Bound: bound, Strategy: &strat})
				if err != nil {
					t.Fatal(err)
				}
				got, err := e2.Do(ctx, Request{Dataset: ds2, Aggs: aggs, Bound: bound, Strategy: &strat})
				if err != nil {
					t.Fatalf("%v bound %g on recovered dataset: %v", strat, bound, err)
				}
				for k := range aggs {
					testutil.CheckIdentical(t, strat.String()+" "+aggs[k].String(), want.Results[k], got.Results[k])
				}
			}
		}
	})
}

// TestPersistedWarmResidentAllocationFree extends the resident warm-path
// allocation gate across a restart: a reopened dataset must answer pinned
// point-index requests at zero allocations per call.
func TestPersistedWarmResidentAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomizes sync.Pool reuse; allocation counts are meaningless under it")
	}
	_, _, _, dir := persistFixture(t, PersistConfig{})
	e2 := NewEngine(dataRegions(92, 5, 5, 8))
	ds2, err := e2.OpenDataset("req-recovered", dir, PersistConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ds2.Compact() // fold the replayed tail so the warm path is all base
	ctx := context.Background()
	pidx := StrategyPointIdx
	req := Request{Dataset: ds2, Aggs: []Agg{Count, Sum, Min}, Bound: 16, Strategy: &pidx, Workers: 1}
	for i := 0; i < 3; i++ {
		resp, err := e2.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}
	cover := e2.CacheStats()
	if cover.Builds != 1 {
		t.Errorf("cover artifact built %d times for one (dataset, bound) after reopen", cover.Builds)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		resp, err := e2.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Release()
	}); allocs > 0 {
		t.Errorf("warm recovered Do allocates %.1f times per call, want 0", allocs)
	}
}

// TestOpenDatasetDomainMismatch: a dataset persisted over one engine's
// domain must be refused by an engine whose regions linearize differently,
// with an error naming both domains.
func TestOpenDatasetDomainMismatch(t *testing.T) {
	_, _, _, dir := persistFixture(t, PersistConfig{})
	shifted := geom.Rect{Min: geom.Pt(50_000, 50_000), Max: geom.Pt(58_000, 55_000)}
	other := NewEngine(data.Regions(data.PartitionIn(7, shifted, 2, 2, 5)))
	if other.domain == DomainForRegions(dataRegions(92, 5, 5, 8)...) {
		t.Fatal("fixture regions collide; pick a different extent")
	}
	_, err := other.OpenDataset("req", dir, PersistConfig{})
	if err == nil {
		t.Fatal("foreign-domain dataset was accepted")
	}
	if !strings.Contains(err.Error(), "domain") {
		t.Errorf("mismatch error does not name the domains: %v", err)
	}
}

// TestPersistRegistrationErrors pins the registration edge cases: double
// Persist, duplicate OpenDataset names, and opening a directory that holds
// no store.
func TestPersistRegistrationErrors(t *testing.T) {
	e, ds, _, dir := persistFixture(t, PersistConfig{})
	if err := ds.Persist(t.TempDir(), PersistConfig{}); err == nil {
		t.Error("second Persist of the same dataset succeeded")
	}
	if _, err := e.OpenDataset("req", dir, PersistConfig{}); err == nil {
		t.Error("OpenDataset reused a registered name")
	}
	if _, err := e.OpenDataset("", dir, PersistConfig{}); err == nil {
		t.Error("OpenDataset accepted an empty name")
	}
	if _, err := e.OpenDataset("empty", t.TempDir(), PersistConfig{}); err == nil {
		t.Error("OpenDataset opened a directory with no snapshot")
	}
}

// TestDeleteSurfacesDurableError: a delete whose log write fails still
// reports its live count — the removal is visible in memory — beside the
// wedge error, and the dataset refuses later mutations. The delete crosses
// the compaction threshold, and the maintainer it starts finishes although
// the wedge refuses its compaction: it runs again only for new mutations.
func TestDeleteSurfacesDurableError(t *testing.T) {
	_, ds, ps := requestFixture(t)
	if n, err := ds.Delete(9); n != 1 || err != nil {
		t.Fatalf("non-durable Delete = (%d, %v), want (1, nil)", n, err)
	}
	fs := errorfs.New()
	if err := ds.Persist("db", PersistConfig{fs: fs}); err != nil {
		t.Fatal(err)
	}
	if n, err := ds.Delete(10); n != 1 || err != nil {
		t.Fatalf("healthy durable Delete = (%d, %v), want (1, nil)", n, err)
	}
	ds.SetCompactionThreshold(1)
	fs.FailAt(fs.Ops()) // the very next call: the delete's log record write
	n, err := ds.Delete(11)
	if n != 1 {
		t.Fatalf("lost-log delete reported %d live rows, want 1", n)
	}
	if err == nil {
		t.Fatal("Delete swallowed the log failure")
	}
	if ds.Stats().DurableErr == nil {
		t.Fatal("log failure did not wedge the dataset")
	}
	if _, err := ds.Append(ps.Pts[:1], ps.Weights[:1]); err == nil {
		t.Fatal("wedged dataset accepted an append")
	}
	if n, err := ds.Delete(12); n != 0 || err == nil {
		t.Fatalf("wedged Delete = (%d, %v), want (0, refused)", n, err)
	}
	if err := ds.Compact(); err == nil {
		t.Fatal("Compact on a wedged dataset returned no error; its checkpoint is refused")
	}
	done := make(chan struct{})
	go func() {
		waitMaintained(ds)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("the wedged dataset's maintainer is still retrying a compaction the wedge refuses")
	}
}

// TestDurableCompactionCheckpoints: once durable, a threshold compaction
// doubles as a checkpoint — the log is retired and the generation advances
// on disk, so the next open replays nothing.
func TestDurableCompactionCheckpoints(t *testing.T) {
	_, ds, _, dir := persistFixture(t, PersistConfig{})
	before := ds.Stats()
	if before.WALRecords == 0 {
		t.Fatal("fixture left no log tail")
	}
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	after := ds.Stats()
	if after.WALRecords != 0 {
		t.Errorf("compaction left %d log records", after.WALRecords)
	}
	if after.CheckpointErr != nil || after.DurableErr != nil {
		t.Fatalf("checkpoint failed: %+v", after)
	}

	e2 := NewEngine(dataRegions(92, 5, 5, 8))
	ds2, err := e2.OpenDataset("req2", dir, PersistConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st := ds2.Stats()
	if st.WALRecords != 0 {
		t.Errorf("reopen after checkpoint replayed %d records", st.WALRecords)
	}
	if st.Generation == 0 {
		t.Error("generation was not persisted")
	}
	if ds2.Len() != ds.Len() {
		t.Errorf("recovered %d live rows, want %d", ds2.Len(), ds.Len())
	}
}
