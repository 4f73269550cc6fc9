package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"distbound"
	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/pointstore/persist"
	"distbound/internal/raster"
	"distbound/internal/testutil"
	"distbound/internal/testutil/errorfs"
)

// fixture builds the same workload twice: sharded into n shards, and as a
// single unsharded engine forced onto the resident point-index strategy —
// the reference every scatter-gather answer must merge back to.
func fixture(t *testing.T, seed int64, npts, nshards int) (*Sharded, []uint64, *distbound.Engine, *distbound.Dataset, []distbound.Region, []distbound.Point, []float64) {
	t.Helper()
	// Partition regions tile the whole city, so the derived domain covers
	// every taxi point: both sides register the identical live set.
	regions := data.Regions(data.Partition(5, 4, 4, 12))
	pts, _ := data.TaxiPoints(seed, npts)
	ws := testutil.ExactWeights(rand.New(rand.NewSource(seed+1)), len(pts))

	s, ids, err := New("taxi", regions, pts, ws, nshards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	e := distbound.NewEngine(regions)
	ds, err := e.RegisterPoints("taxi", pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	return s, ids, e, ds, regions, pts, ws
}

var allAggs = []distbound.Agg{distbound.Count, distbound.Sum, distbound.Avg, distbound.Min, distbound.Max}

// unshardedDo answers req on the reference engine with the same plan the
// shards run: resident point index, single-threaded join.
func unshardedDo(t *testing.T, e *distbound.Engine, ds *distbound.Dataset, aggs []distbound.Agg, bound float64) distbound.Response {
	t.Helper()
	strat := distbound.StrategyPointIdx
	resp, err := e.Do(context.Background(), distbound.Request{
		Dataset: ds, Aggs: aggs, Bound: bound, Strategy: &strat, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestShardedDifferential is the acceptance oracle: for every aggregate and
// several bounds, the merged scatter-gather answer must be bit-identical to
// the unsharded point-index answer. ExactWeights keeps every partial sum an
// exact float64, so even SUM/AVG — exact only up to reassociation in
// general — compare bitwise here; COUNT/MIN/MAX are unconditionally
// identical.
func TestShardedDifferential(t *testing.T) {
	for _, n := range []int{1, 8} {
		s, _, e, ds, _, _, _ := fixture(t, 3, 12000, n)
		if got := s.NumShards(); got != n {
			t.Fatalf("fixture built %d shards, want %d", got, n)
		}
		for _, bound := range []float64{16, 64, 256} {
			resp, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: bound})
			if err != nil {
				t.Fatal(err)
			}
			want := unshardedDo(t, e, ds, allAggs, bound)
			for k, agg := range allAggs {
				testutil.CheckIdentical(t, fmt.Sprintf("shards=%d bound=%g agg=%v", n, bound, agg), want.Results[k], resp.Results[k])
			}
			want.Release()
		}
	}
}

// TestShardedWorkerInvariance: the gather merges in ascending shard order
// regardless of scatter width, so every GOMAXPROCS — the scatter's width —
// yields bitwise the same answer.
func TestShardedWorkerInvariance(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	s, _, _, _, _, _, _ := fixture(t, 9, 6000, 6)
	s.SetResultCacheCapacity(0) // every width executes its own scatter
	runtime.GOMAXPROCS(1)
	base, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 16} {
		runtime.GOMAXPROCS(w)
		got, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: 64})
		if err != nil {
			t.Fatal(err)
		}
		for k, agg := range allAggs {
			testutil.CheckIdentical(t, fmt.Sprintf("workers=%d agg=%v", w, agg), base.Results[k], got.Results[k])
		}
	}
}

// TestShardedPartitioning checks the structural invariants New promises:
// contiguous ascending key intervals tiling [0, MaxUint64], every reported
// ID decoding to the shard owning the point's key, and the live count
// matching the input.
func TestShardedPartitioning(t *testing.T) {
	s, ids, _, _, _, pts, _ := fixture(t, 7, 5000, 8)
	st := s.Stats()
	if st.Dropped != 0 {
		t.Fatalf("city-covering regions dropped %d points", st.Dropped)
	}
	if st.Live != len(pts) {
		t.Fatalf("live %d != registered %d", st.Live, len(pts))
	}
	if len(st.PerShard) != s.NumShards() {
		t.Fatalf("stats report %d shards, have %d", len(st.PerShard), s.NumShards())
	}
	if st.PerShard[0].LoKey != 0 {
		t.Fatalf("first shard starts at %d", st.PerShard[0].LoKey)
	}
	for i := 1; i < len(st.PerShard); i++ {
		if st.PerShard[i].LoKey != st.PerShard[i-1].HiKey+1 {
			t.Fatalf("shard %d starts at %d; predecessor ends at %d", i, st.PerShard[i].LoKey, st.PerShard[i-1].HiKey)
		}
	}
	if last := st.PerShard[len(st.PerShard)-1].HiKey; last != math.MaxUint64 {
		t.Fatalf("last shard ends at %d", last)
	}
	for i, id := range ids {
		if id == NoID {
			t.Fatalf("point %d dropped despite covering regions", i)
		}
		si := int(id >> shardIDBits)
		key, ok := s.domain.LeafPos(distbound.Hilbert, pts[i])
		if !ok {
			t.Fatalf("point %d unexpectedly out of domain", i)
		}
		if key < s.shards[si].lo || key > s.shards[si].hi {
			t.Fatalf("point %d routed to shard %d [%d,%d] but has key %d", i, si, s.shards[si].lo, s.shards[si].hi, key)
		}
	}
}

// TestShardedMutationParity appends and deletes the same logical points on
// both sides — routed global IDs on the sharded one, registration/append
// IDs on the unsharded one — and requires the answers to stay identical.
func TestShardedMutationParity(t *testing.T) {
	for _, n := range []int{1, 5} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			s, sids, e, ds, _, pts, _ := fixture(t, 13, 4000, n)

			extra, _ := data.TaxiPoints(17, 600)
			extraWs := testutil.ExactWeights(rand.New(rand.NewSource(18)), len(extra))
			gids, err := s.Append(extra, extraWs)
			if err != nil {
				t.Fatal(err)
			}
			uids, err := ds.Append(extra, extraWs)
			if err != nil {
				t.Fatal(err)
			}

			// Delete a slice of the registration-time points and a slice of the
			// appended ones on both sides.
			var delS, delU []uint64
			for i := 100; i < len(pts); i += 7 {
				delS = append(delS, sids[i])
				delU = append(delU, uint64(i))
			}
			for i := 0; i < len(extra); i += 3 {
				delS = append(delS, gids[i])
				delU = append(delU, uids[i])
			}
			gotN, err := s.Delete(delS...)
			if err != nil {
				t.Fatal(err)
			}
			wantN, err := ds.Delete(delU...)
			if err != nil {
				t.Fatal(err)
			}
			if gotN != wantN {
				t.Fatalf("sharded delete removed %d, unsharded %d", gotN, wantN)
			}
			// Idempotence: re-deleting removes nothing.
			if got, err := s.Delete(delS...); got != 0 || err != nil {
				t.Fatalf("re-delete removed %d (%v)", got, err)
			}

			resp, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: 64})
			if err != nil {
				t.Fatal(err)
			}
			// The probe counters sum the shards' work: the first read inverts every
			// live appended row exactly once, on the shard owning it.
			if liveExtra := len(extra) - (len(extra)+2)/3; resp.DeltaProbed != liveExtra {
				t.Fatalf("first read after the appends inverted %d delta rows, want the %d live ones", resp.DeltaProbed, liveExtra)
			}
			want := unshardedDo(t, e, ds, allAggs, 64)
			for k, agg := range allAggs {
				testutil.CheckIdentical(t, fmt.Sprintf("post-mutation agg=%v", agg), want.Results[k], resp.Results[k])
			}
			want.Release()

			// Compaction folds every shard's delta; answers must not move.
			s.Compact()
			ds.Compact()
			resp2, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: 64})
			if err != nil {
				t.Fatal(err)
			}
			if resp2.DeltaProbed != 0 || resp2.RangesProbed == 0 {
				t.Fatalf("post-compaction query reports {%d %d}: want a base refill and no delta rows", resp2.RangesProbed, resp2.DeltaProbed)
			}
			want2 := unshardedDo(t, e, ds, allAggs, 64)
			for k, agg := range allAggs {
				testutil.CheckIdentical(t, fmt.Sprintf("post-compaction agg=%v", agg), want2.Results[k], resp2.Results[k])
			}
			want2.Release()
		})
	}
}

// TestShardedFanOut: a region set covering only two corners of the data
// still answers exactly when every shard is asked, and the scatter counts
// the whole width as contacted.
func TestShardedFanOut(t *testing.T) {
	full := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(data.CitySize, data.CitySize)}
	cornerA := geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(512, 512)}
	cornerB := geom.Rect{Min: geom.Pt(data.CitySize-512, data.CitySize-512), Max: geom.Pt(data.CitySize, data.CitySize)}
	corners := data.Regions(data.PartitionIn(22, cornerA, 1, 1, 8))
	corners = append(corners, data.Regions(data.PartitionIn(23, cornerB, 1, 1, 8))...)

	pts, _ := data.TaxiPointsIn(25, 8000, full)
	sc, _, err := New("corners", corners, pts, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if sc.NumShards() != 8 {
		t.Fatalf("corner fixture collapsed to %d shards", sc.NumShards())
	}
	if st := sc.Stats(); st.MaxFanOut != 0 {
		t.Fatalf("max fan-out %d before any scatter", st.MaxFanOut)
	}
	resp, err := sc.Do(context.Background(), Request{Aggs: []distbound.Agg{distbound.Count}, Bound: 16})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ShardsTotal != 8 {
		t.Fatalf("scatter reports %d shards, the partition has 8", resp.ShardsTotal)
	}

	// The answer must be exact vs a brute classification.
	cls := testutil.Classify(pts, nil, corners, 16)
	cls.Check(t, "corner fan-out", distbound.Count, resp.Results[0])

	st := sc.Stats()
	if st.Queries != 1 || st.ContactedTotal != 8 || st.MaxFanOut != 8 {
		t.Fatalf("stats = %+v after one scatter over 8 shards", st)
	}
	if st.RangesProbed == 0 || st.RangesProbed != uint64(resp.RangesProbed) || st.DeltaProbed != uint64(resp.DeltaProbed) {
		t.Fatalf("stats probes {%d %d} after one scatter that probed {%d %d}", st.RangesProbed, st.DeltaProbed, resp.RangesProbed, resp.DeltaProbed)
	}
	if st.MemoryBytes != sc.MemoryBytes() {
		t.Fatalf("stats memory %d B, the shards sum to %d B", st.MemoryBytes, sc.MemoryBytes())
	}
}

// TestShardedPersistOpen round-trips the partition through disk: persist,
// close, open, and the recovered Sharded must answer identically and stay
// mutable/durable.
func TestShardedPersistOpen(t *testing.T) {
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			regions := data.Regions(data.Partition(5, 4, 4, 12))
			pts, _ := data.TaxiPoints(31, 3000)
			ws := testutil.ExactWeights(rand.New(rand.NewSource(32)), len(pts))
			s, _, err := New("taxi", regions, pts, ws, n)
			if err != nil {
				t.Fatal(err)
			}
			before, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: 64})
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			if err := s.Persist(dir, distbound.PersistConfig{}); err != nil {
				t.Fatal(err)
			}
			// Mutations after Persist write-ahead log into the owning shard.
			extra, _ := data.TaxiPoints(33, 200)
			extraWs := testutil.ExactWeights(rand.New(rand.NewSource(34)), len(extra))
			gids, err := s.Append(extra, extraWs)
			if err != nil {
				t.Fatal(err)
			}
			s.Delete(gids[:50]...)
			mutated, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: 64})
			if err != nil {
				t.Fatal(err)
			}
			s.Close()

			re, err := Open(regions, dir, distbound.PersistConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.NumShards() != n {
				t.Fatalf("recovered %d shards", re.NumShards())
			}
			after, err := re.Do(context.Background(), Request{Aggs: allAggs, Bound: 64})
			if err != nil {
				t.Fatal(err)
			}
			for k, agg := range allAggs {
				testutil.CheckIdentical(t, fmt.Sprintf("recovered agg=%v", agg), mutated.Results[k], after.Results[k])
			}
			// Sanity: recovery really replayed the logged mutations, not just the
			// snapshot.
			if before.Results[0].Counts[0] == after.Results[0].Counts[0] &&
				re.Len() == len(pts) {
				t.Fatalf("recovered dataset ignored the logged mutations")
			}
			if want := len(pts) + len(extra) - 50; re.Len() != want {
				t.Fatalf("recovered %d live points, want %d", re.Len(), want)
			}
		})
	}
}

// TestShardedManifestSurvivesCrash: the manifest goes through the configured
// filesystem and is synced before Persist returns, so a crash right after
// Persist keeps it, and Open over the same filesystem answers bit-identically
// to the dataset that was persisted.
func TestShardedManifestSurvivesCrash(t *testing.T) {
	regions := data.Regions(data.Partition(5, 4, 4, 12))
	pts, _ := data.TaxiPoints(37, 3000)
	ws := testutil.ExactWeights(rand.New(rand.NewSource(38)), len(pts))
	s, _, err := New("taxi", regions, pts, ws, 3)
	if err != nil {
		t.Fatal(err)
	}
	fs := errorfs.New()
	cfg := distbound.PersistConfig{}.WithFS(fs)
	dir := filepath.Join(t.TempDir(), "taxi")
	if err := s.Persist(dir, cfg); err != nil {
		t.Fatal(err)
	}
	want, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: 64})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	fs.Crash()
	fs.Recover()
	if fs.Data(filepath.Join(dir, manifestName)) == nil {
		t.Fatal("the manifest did not survive a crash after Persist in the configured filesystem")
	}
	re, err := Open(regions, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.Do(context.Background(), Request{Aggs: allAggs, Bound: 64})
	if err != nil {
		t.Fatal(err)
	}
	for k, agg := range allAggs {
		testutil.CheckIdentical(t, fmt.Sprintf("recovered agg=%v", agg), want.Results[k], got.Results[k])
	}
}

// TestShardedOpenClosesOnFailure: when a later shard fails to open, Open
// closes the logs of the shards it already opened — every WAL it opened for
// writing is closed — and once the damaged snapshot is restored, Open
// recovers every row.
func TestShardedOpenClosesOnFailure(t *testing.T) {
	regions := data.Regions(data.Partition(5, 4, 4, 12))
	pts, _ := data.TaxiPoints(39, 3000)
	s, _, err := New("taxi", regions, pts, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	fs := errorfs.New()
	cfg := distbound.PersistConfig{}.WithFS(fs)
	dir := filepath.Join(t.TempDir(), "taxi")
	if err := s.Persist(dir, cfg); err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 3 {
		t.Fatalf("fixture built %d shards, want 3", s.NumShards())
	}
	live := s.Len()
	s.Close()

	snap := filepath.Join(dir, shardDirName(2), persist.SnapshotName)
	good := fs.Data(snap)
	fs.SetData(snap, []byte("garbage"))
	from := len(fs.Trace())
	if re, err := Open(regions, dir, cfg); err == nil {
		re.Close()
		t.Fatal("Open accepted a garbage snapshot")
	}
	if opened := closedWALs(t, fs, from); opened != 2 {
		t.Fatalf("the failed Open opened %d WALs, want the two shards before the damaged one", opened)
	}

	fs.SetData(snap, good)
	re, err := Open(regions, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != live {
		t.Fatalf("reopened %d live rows, want %d", re.Len(), live)
	}
}

// closedWALs counts the logs opened for writing in fs's trace since from,
// failing t for any file the trace leaves open.
func closedWALs(t *testing.T, fs *errorfs.FS, from int) int {
	t.Helper()
	open := map[string]int{}
	for _, line := range fs.Trace()[from:] {
		f := strings.Fields(line)
		switch {
		case f[0] == "openwrite" && strings.HasSuffix(f[1], ".log"):
			open[f[1]]++
		case f[0] == "close":
			open[f[1]]--
		}
	}
	opened := 0
	for name, n := range open {
		if strings.HasSuffix(name, ".log") {
			opened++
		}
		if n > 0 {
			t.Errorf("the failed Open left %s open", name)
		}
	}
	return opened
}

// TestShardedOpenRejectsForeignDirs: a manifest entry must name the
// directory Persist wrote for its position. A duplicated entry would open
// one store as two shards, and an escaping one reaches outside the
// partition's directory: Open refuses both and closes every WAL it opened.
func TestShardedOpenRejectsForeignDirs(t *testing.T) {
	regions := data.Regions(data.Partition(5, 4, 4, 12))
	pts, _ := data.TaxiPoints(39, 3000)
	s, _, err := New("taxi", regions, pts, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	fs := errorfs.New()
	cfg := distbound.PersistConfig{}.WithFS(fs)
	dir := filepath.Join(t.TempDir(), "taxi")
	if err := s.Persist(dir, cfg); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, manifestName)
	good := fs.Data(path)
	for _, tc := range []struct {
		shard  int
		dir    string
		opened int
	}{
		{1, shardDirName(0), 1},
		{2, "../x", 2},
	} {
		var m manifest
		if err := json.Unmarshal(good, &m); err != nil {
			t.Fatal(err)
		}
		m.Shards[tc.shard].Dir = tc.dir
		buf, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		fs.SetData(path, buf)
		from := len(fs.Trace())
		if re, err := Open(regions, dir, cfg); err == nil {
			re.Close()
			t.Fatalf("Open accepted shard %d in directory %q", tc.shard, tc.dir)
		}
		if opened := closedWALs(t, fs, from); opened != tc.opened {
			t.Fatalf("shard %d in %q: the failed Open opened %d WALs, want the %d shards before it", tc.shard, tc.dir, opened, tc.opened)
		}
	}
	fs.SetData(path, good)
	re, err := Open(regions, dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	re.Close()
}

// TestShardedDeleteSurfacesDurableError: a delete spanning several shards
// where one shard's log write fails still attempts every shard and returns
// the full live count — the removals are visible in memory — but the error
// names the shard whose log lost the record, and that shard is wedged.
func TestShardedDeleteSurfacesDurableError(t *testing.T) {
	regions := data.Regions(data.Partition(5, 4, 4, 12))
	pts, _ := data.TaxiPoints(35, 3000)
	s, ids, err := New("taxi", regions, pts, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fs := errorfs.New()
	if err := s.Persist(t.TempDir(), distbound.PersistConfig{}.WithFS(fs)); err != nil {
		t.Fatal(err)
	}
	// Two live IDs from every shard: one pair for the healthy delete, one for
	// the delete whose first log write fails.
	perShard := make([][]uint64, s.NumShards())
	for _, id := range ids {
		if si := int(id >> shardIDBits); id != NoID && len(perShard[si]) < 2 {
			perShard[si] = append(perShard[si], id)
		}
	}
	var healthy, lost []uint64
	for si, g := range perShard {
		if len(g) < 2 {
			t.Fatalf("shard %d holds %d points; fixture too small", si, len(g))
		}
		healthy, lost = append(healthy, g[0]), append(lost, g[1])
	}
	if n, err := s.Delete(healthy...); n != len(healthy) || err != nil {
		t.Fatalf("healthy durable Delete = (%d, %v), want (%d, nil)", n, err, len(healthy))
	}

	fs.FailAt(fs.Ops()) // the very next call: shard 0's log record write
	n, err := s.Delete(lost...)
	if n != len(lost) {
		t.Fatalf("lost-log delete reported %d live rows, want %d: a failed shard stopped the others", n, len(lost))
	}
	if err == nil {
		t.Fatal("Sharded.Delete swallowed the log failure")
	}
	if !errors.Is(err, errorfs.ErrInjected) || !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("error does not name the failed shard and its cause: %v", err)
	}
	if werr := s.DurableErr(); werr == nil || !strings.Contains(werr.Error(), "shard 0") {
		t.Fatalf("DurableErr = %v, want shard 0 wedged", werr)
	}
	if want := len(pts) - len(healthy) - len(lost); s.Len() != want {
		t.Fatalf("%d live points after the deletes, want %d", s.Len(), want)
	}
}

// TestShardedAppendReportsWhatLanded: an append spanning several shards where
// one shard's log write fails mid-batch still attempts every shard, returns
// the IDs of the rows the healthy shards accepted (NoID for the wedged
// shard's), and names the failed shard — acknowledged rows are never
// reported as lost.
func TestShardedAppendReportsWhatLanded(t *testing.T) {
	regions := data.Regions(data.Partition(5, 4, 4, 12))
	pts, _ := data.TaxiPoints(35, 3000)
	s, _, err := New("taxi", regions, pts, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fs := errorfs.New()
	if err := s.Persist(t.TempDir(), distbound.PersistConfig{}.WithFS(fs)); err != nil {
		t.Fatal(err)
	}
	// Interleave four rows for every shard, so the batch's groups are not
	// contiguous in the input.
	extra, _ := data.TaxiPoints(36, 600)
	perShard := make([]int, s.NumShards())
	var batch []distbound.Point
	var owners []int
	for _, p := range extra {
		key, _ := s.domain.LeafPos(distbound.Hilbert, p)
		if si := s.owner(key); perShard[si] < 4 {
			perShard[si]++
			batch, owners = append(batch, p), append(owners, si)
		}
	}
	if len(batch) != 4*s.NumShards() {
		t.Fatalf("fixture too small: %v rows per shard", perShard)
	}

	// A healthy batch measures the filesystem calls one shard's group costs.
	before := fs.Ops()
	if ids, err := s.Append(batch, nil); err != nil || slices.Contains(ids, NoID) {
		t.Fatalf("healthy durable Append = (%v, %v)", ids, err)
	}
	perGroup := (fs.Ops() - before) / s.NumShards()
	live := s.Len()

	fs.FailAt(fs.Ops() + perGroup) // shard 1's first call, after shard 0 has logged its rows
	ids, err := s.Append(batch, nil)
	if err == nil {
		t.Fatal("Sharded.Append swallowed the log failure")
	}
	if !errors.Is(err, errorfs.ErrInjected) || !strings.Contains(err.Error(), "shard 1") ||
		strings.Contains(err.Error(), "shard 0") || strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("error does not name exactly the failed shard and its cause: %v", err)
	}
	if len(ids) != len(batch) {
		t.Fatalf("%d IDs for %d rows: a failed shard dropped the others' acknowledgements", len(ids), len(batch))
	}
	var landed []uint64
	for i, id := range ids {
		switch {
		case owners[i] == 1 && id != NoID:
			t.Fatalf("row %d: the wedged shard's row was acknowledged with ID %d", i, id)
		case owners[i] != 1 && (id == NoID || int(id>>shardIDBits) != owners[i]):
			t.Fatalf("row %d: shard %d accepted it but Append reported ID %d", i, owners[i], id)
		case owners[i] != 1:
			landed = append(landed, id)
		}
	}
	if werr := s.DurableErr(); werr == nil || !strings.Contains(werr.Error(), "shard 1") {
		t.Fatalf("DurableErr = %v, want shard 1 wedged", werr)
	}
	if s.Len() < live+len(landed) {
		t.Fatalf("%d live points, want at least the %d before plus %d acknowledged", s.Len(), live, len(landed))
	}
	// The acknowledged IDs are real: the healthy shards delete them.
	if n, err := s.Delete(landed...); n != len(landed) || err != nil {
		t.Fatalf("deleting the acknowledged rows = (%d, %v), want (%d, nil)", n, err, len(landed))
	}
}

// TestShardedValidation covers the constructor's and query path's rejection
// cases, plus out-of-domain drop accounting.
func TestShardedValidation(t *testing.T) {
	regions := data.Regions(data.Partition(5, 2, 2, 8))
	pts, _ := data.TaxiPoints(41, 100)

	if _, _, err := New("", regions, pts, nil, 2); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, _, err := New("x", regions, pts, nil, 0); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, _, err := New("x", regions, pts, nil, MaxShards+1); err == nil {
		t.Fatal("oversized shard count accepted")
	}
	if _, _, err := New("x", regions, pts, []float64{1}, 2); err == nil {
		t.Fatal("mismatched weights accepted")
	}

	s, ids, err := New("x", regions, append(append([]distbound.Point(nil), pts...),
		geom.Pt(-1e9, -1e9)), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st := s.Stats(); st.Dropped != 1 || st.Live != len(pts) {
		t.Fatalf("dropped=%d live=%d after one out-of-domain point", st.Dropped, st.Live)
	}
	if ids[len(ids)-1] != NoID {
		t.Fatalf("out-of-domain point got ID %d", ids[len(ids)-1])
	}

	if _, err := s.Do(context.Background(), Request{Bound: 16}); err == nil {
		t.Fatal("empty aggregate set accepted")
	}
	if _, err := s.Do(context.Background(), Request{Aggs: []distbound.Agg{distbound.Count}}); err == nil {
		t.Fatal("zero bound accepted")
	}
	if _, err := s.Do(context.Background(), Request{Aggs: []distbound.Agg{distbound.Sum}, Bound: 16}); err == nil {
		t.Fatal("SUM without weights accepted")
	}
	if _, err := s.Append([]distbound.Point{geom.Pt(-1e9, -1e9)}, nil); err == nil {
		t.Fatal("out-of-domain append accepted")
	}
	if _, err := s.Append(pts[:2], []float64{1, 2}); err == nil {
		t.Fatal("weights appended to a weightless dataset")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Do(ctx, Request{Aggs: []distbound.Agg{distbound.Count}, Bound: 16}); err != context.Canceled {
		t.Fatalf("canceled context returned %v", err)
	}
}

// TestShardedResultCache pins the scatter-gather result cache's contract:
// a repeated identical query is served from the cache (no new shard
// contacts), any mutation on any shard moves the epoch sum and strands the
// entry, a cached answer is bit-identical to the executed one and to the
// unsharded oracle, and with the cache off nothing caches in its place.
func TestShardedResultCache(t *testing.T) {
	s, ids, e, ds, _, pts, ws := fixture(t, 21, 8000, 6)
	ctx := context.Background()
	req := Request{Aggs: allAggs, Bound: 64}

	cold, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	st0 := s.Stats().ResultCache
	if st0.Misses == 0 || s.results.Len() != 1 {
		t.Fatalf("cold query did not populate the cache: %+v len=%d", st0, s.results.Len())
	}
	contacts0 := s.Stats().ContactedTotal

	warm, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats().ResultCache; st.Hits != st0.Hits+1 {
		t.Fatalf("repeated query missed: %+v -> %+v", st0, st)
	}
	if got := s.Stats().ContactedTotal; got != contacts0 {
		t.Fatalf("cache hit still contacted shards: %d -> %d", contacts0, got)
	}
	if warm.ShardsTotal != cold.ShardsTotal {
		t.Fatalf("hit altered the scatter width: cold %+v warm %+v", cold, warm)
	}
	if cold.RangesProbed == 0 || warm.RangesProbed != 0 || warm.DeltaProbed != 0 {
		t.Fatalf("probe counters must meter work done: cold {%d %d} (a fill), hit {%d %d} (none)",
			cold.RangesProbed, cold.DeltaProbed, warm.RangesProbed, warm.DeltaProbed)
	}
	if st := s.Stats(); st.RangesProbed != uint64(cold.RangesProbed) || st.DeltaProbed != uint64(cold.DeltaProbed) {
		t.Fatalf("stats probes {%d %d} after a fill {%d %d} and a hit: the hit must add none",
			st.RangesProbed, st.DeltaProbed, cold.RangesProbed, cold.DeltaProbed)
	}
	want := unshardedDo(t, e, ds, allAggs, 64)
	for k, agg := range allAggs {
		testutil.CheckIdentical(t, fmt.Sprintf("warm agg=%v", agg), want.Results[k], warm.Results[k])
	}
	want.Release()

	// A bound served by another level is a different key: 32 is the level
	// next finer than 64's, and none finer is ready, so it is built. A bound
	// on the coarser adjacent level, 128, is served by 64's ready level and
	// shares its answer.
	hits := s.Stats().ResultCache.Hits
	if _, err := s.Do(ctx, Request{Aggs: allAggs, Bound: 32}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats().ResultCache; st.Hits != hits {
		t.Fatalf("distinct level hit a stale entry: %+v", st)
	}
	coarser, err := s.Do(ctx, Request{Aggs: allAggs, Bound: 128})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats().ResultCache; st.Hits != hits+1 || coarser.ServedBound != cold.ServedBound {
		t.Fatalf("bound 128 served at %g m beside 64's %g m, result cache %+v: want 64's level and its entry", coarser.ServedBound, cold.ServedBound, st)
	}

	// Every mutation kind moves the epoch sum and strands the entry.
	mutate := []struct {
		name string
		do   func()
	}{
		{"append", func() {
			if _, err := s.Append(pts[:7], ws[:7]); err != nil {
				t.Fatal(err)
			}
		}},
		{"delete", func() {
			if n, err := s.Delete(ids[3]); n != 1 || err != nil {
				t.Fatalf("delete removed %d points (%v)", n, err)
			}
		}},
		{"compact", s.Compact},
	}
	for _, m := range mutate {
		before := s.EpochSum()
		m.do()
		if after := s.EpochSum(); after == before {
			t.Fatalf("%s left the epoch sum at %d", m.name, before)
		}
		misses := s.Stats().ResultCache.Misses
		fresh, err := s.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats().ResultCache; st.Misses != misses+1 {
			t.Fatalf("query after %s was served stale: %+v", m.name, st)
		}
		hits := s.Stats().ResultCache.Hits
		again, err := s.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats().ResultCache; st.Hits != hits+1 {
			t.Fatalf("re-warm after %s missed: %+v", m.name, st)
		}
		for k, agg := range allAggs {
			testutil.CheckIdentical(t, fmt.Sprintf("after %s agg=%v", m.name, agg), fresh.Results[k], again.Results[k])
		}
	}
	// The mutated dataset's cached answer still matches a from-scratch merge:
	// mirror the append and delete on the unsharded reference (registration
	// IDs there are input positions, per TestShardedMutationParity).
	if _, err := ds.Append(pts[:7], ws[:7]); err != nil {
		t.Fatal(err)
	}
	if n, err := ds.Delete(3); n != 1 || err != nil {
		t.Fatalf("reference delete removed %d (%v)", n, err)
	}
	want = unshardedDo(t, e, ds, allAggs, 64)
	final, err := s.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for k, agg := range allAggs {
		testutil.CheckIdentical(t, fmt.Sprintf("post-mutation agg=%v", agg), want.Results[k], final.Results[k])
	}
	want.Release()

	// Disabling the cache is a full bypass: counters freeze, and nothing
	// beneath the scatter caches in its place — every repeat executes on the
	// shards and answers the same.
	s.SetResultCacheCapacity(0)
	frozen := s.Stats().ResultCache
	contacts := s.Stats().ContactedTotal
	for i := 0; i < 2; i++ {
		got, err := s.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		for k, agg := range allAggs {
			testutil.CheckIdentical(t, fmt.Sprintf("uncached repeat %d agg=%v", i, agg), final.Results[k], got.Results[k])
		}
	}
	if st := s.Stats().ResultCache; st.Hits != frozen.Hits || st.Misses != frozen.Misses {
		t.Fatalf("disabled cache still probed: %+v -> %+v", frozen, st)
	}
	if got, want := s.Stats().ContactedTotal, contacts+2*uint64(final.ShardsTotal); got != want {
		t.Fatalf("uncached repeats contacted %d shards in total, want %d: something answered without executing", got, want)
	}
}

// TestShardedResultCacheCapacityIsExact: the result cache holds exactly its
// capacity in answers and evicts the least recently used one, whatever keys
// the answers carry. The eight levels go coarse-first, so each is served at
// its own level and keys its own answer.
func TestShardedResultCacheCapacityIsExact(t *testing.T) {
	s, _, _, _, _, _, _ := fixture(t, 31, 2000, 4)
	s.SetResultCacheCapacity(2)
	ctx := context.Background()
	var reqs []Request
	levels := map[int]bool{}
	for b := 64.0; len(reqs) < 8; b *= 2 {
		level, err := raster.BoundLevel(s.domain, b)
		if err != nil {
			t.Fatal(err)
		}
		if levels[level] {
			t.Fatalf("bound %v shares level %d with a smaller one", b, level)
		}
		levels[level] = true
		reqs = append(reqs, Request{Aggs: []distbound.Agg{distbound.Count}, Bound: b})
	}
	slices.Reverse(reqs)
	for _, req := range reqs {
		if _, err := s.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.results.Len(); n != 2 {
		t.Fatalf("capacity 2 holds %d answers after eight levels", n)
	}
	st := s.Stats().ResultCache
	for _, req := range reqs[6:] {
		if _, err := s.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Stats().ResultCache; got.Hits != st.Hits+2 || got.Misses != st.Misses {
		t.Fatalf("the two newest levels did not both hit: %+v -> %+v", st, got)
	}
	if _, err := s.Do(ctx, reqs[0]); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().ResultCache; got.Misses != st.Misses+1 {
		t.Fatalf("the oldest level was still cached: %+v -> %+v", st, got)
	}
}

// TestShardedResultCacheFreshUnderConcurrency races readers against appends
// and against the cache being switched off and on (run it under -race).
// Appends only add points, so no reader may see a region's count fall on
// any shape, and once the writers stop a cached answer equals an executed
// one.
func TestShardedResultCacheFreshUnderConcurrency(t *testing.T) {
	s, _, _, _, _, pts, ws := fixture(t, 37, 4000, 4)
	ctx := context.Background()
	shapes := []Request{
		{Aggs: []distbound.Agg{distbound.Count}, Bound: 64},
		{Aggs: []distbound.Agg{distbound.Count}, Bound: 256},
		{Aggs: []distbound.Agg{distbound.Count}, Bound: 1024},
	}
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			last := make([][]int64, len(shapes))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % len(shapes)
				resp, err := s.Do(ctx, shapes[k])
				if err != nil {
					t.Error(err)
					return
				}
				counts := resp.Results[0].Counts
				for ri := range last[k] {
					if counts[ri] < last[k][ri] {
						t.Errorf("bound %v region %d: count fell %d -> %d", shapes[k].Bound, ri, last[k][ri], counts[ri])
						return
					}
				}
				last[k] = slices.Clone(counts)
			}
		}()
	}
	writers.Add(2)
	go func() {
		defer writers.Done()
		for i := 0; i < 50; i++ {
			if _, err := s.Append(pts[i:i+1], ws[i:i+1]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer writers.Done()
		for i := 0; i < 50; i++ {
			s.SetResultCacheCapacity(distbound.DefaultResultCacheCapacity * (i % 2))
		}
		s.SetResultCacheCapacity(distbound.DefaultResultCacheCapacity)
	}()
	writers.Wait()
	close(stop)
	readers.Wait()

	for _, req := range shapes {
		if _, err := s.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
		hits := s.Stats().ResultCache.Hits
		cached, err := s.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if s.Stats().ResultCache.Hits != hits+1 {
			t.Fatalf("bound %v: the repeat after the writers stopped was not a hit", req.Bound)
		}
		s.SetResultCacheCapacity(0)
		executed, err := s.Do(ctx, req)
		s.SetResultCacheCapacity(distbound.DefaultResultCacheCapacity)
		if err != nil {
			t.Fatal(err)
		}
		testutil.CheckIdentical(t, fmt.Sprintf("bound %v", req.Bound), executed.Results[0], cached.Results[0])
	}
}

// FuzzShardedCachedDo interleaves Append/Delete/Compact with queries against
// two four-shard partitions fed the identical op stream — one behind the
// merged result cache, one with it off (the executed oracle). Any divergence
// is a stale hit: the cache serving an epoch sum the mutations have moved
// past. Auto-compaction is off on both, so their shards hold the same base
// and delta and every column — COUNT, SUM, MIN, MAX — must match bit for bit.
func FuzzShardedCachedDo(f *testing.F) {
	f.Add([]byte{3, 0, 4, 1, 3, 2, 4, 0, 0, 3, 1, 4})
	f.Add([]byte{4, 4, 4, 4})
	f.Add([]byte{0, 3, 0, 3, 2, 3, 1, 3, 2, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		regions := data.Regions(data.Partition(101, 4, 4, 6))
		pool, _ := data.TaxiPoints(102, 6_000)
		weights := testutil.ExactWeights(rand.New(rand.NewSource(103)), len(pool))

		newSharded := func() (*Sharded, []uint64) {
			s, ids, err := New("fuzz", regions, pool[:3_000], weights[:3_000], 4)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			s.SetCompactionThreshold(0)
			return s, ids
		}
		cached, live := newSharded()
		plain, _ := newSharded()
		plain.SetResultCacheCapacity(0)

		// IDs are deterministic (same regions, same input order), so one
		// live list mirrors both partitions.
		off := 3_000
		ctx := context.Background()
		bounds := []float64{8, 16, 32}
		aggSets := [][]distbound.Agg{{distbound.Count}, {distbound.Count, distbound.Sum, distbound.Min, distbound.Max}}
		query := func(op byte) {
			req := Request{Aggs: aggSets[int(op>>4)%len(aggSets)], Bound: bounds[int(op)%len(bounds)]}
			got, err := cached.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plain.Do(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			for k, w := range want.Results {
				g := got.Results[k]
				label := fmt.Sprintf("ε=%v %v", req.Bound, w.Agg)
				if !slices.Equal(g.Counts, w.Counts) {
					t.Fatalf("%s: cached counts %v, executed %v", label, g.Counts, w.Counts)
				}
				if !sameFloatBits(g.Sums, w.Sums) || !sameFloatBits(g.Extremes, w.Extremes) {
					t.Fatalf("%s: cached values diverge from executed", label)
				}
			}
		}
		for i, op := range ops {
			switch op % 5 {
			case 0: // append a small batch
				n := 1 + int(op/16)*8
				if off+n > len(pool) {
					continue
				}
				idsC, err := cached.Append(pool[off:off+n], weights[off:off+n])
				if err != nil {
					t.Fatal(err)
				}
				idsP, err := plain.Append(pool[off:off+n], weights[off:off+n])
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(idsC, idsP) {
					t.Fatalf("partitions diverged on assigned IDs: %v vs %v", idsC, idsP)
				}
				live = append(live, idsC...)
				off += n
			case 1: // delete one live point
				if len(live) == 0 {
					continue
				}
				k := (int(op) + i*7919) % len(live)
				for _, s := range []*Sharded{cached, plain} {
					if _, err := s.Delete(live[k]); err != nil {
						t.Fatal(err)
					}
				}
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			case 2:
				cached.Compact()
				plain.Compact()
			default:
				query(op)
			}
		}
		// Close the stream with one query per bound so every mutation tail
		// is checked against the oracle.
		for b := byte(0); b < 3; b++ {
			query(b)
		}
	})
}

// sameFloatBits reports whether two columns hold the same float64 bits.
func sameFloatBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestRenderedMemo pins the render slot a result-cache entry carries: a miss
// renders every time and leaves its entry empty, the first hit fills it and
// later hits return those bytes without rendering, a failed render stores
// nothing, a mutation strands the bytes with their entry, and with the cache
// off nothing is kept.
func TestRenderedMemo(t *testing.T) {
	s, _, _, _, _, pts, ws := fixture(t, 22, 4000, 4)
	ctx := context.Background()
	renders := 0
	render := func(req Request, fail bool) []byte {
		t.Helper()
		resp, err := s.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		var scratch []byte
		b, err := resp.Rendered(&scratch, func(b []byte) ([]byte, error) {
			renders++
			if fail {
				return b, errors.New("refused")
			}
			return fmt.Appendf(b, "%v %d", resp.Results[0].Counts, resp.ShardsTotal), nil
		})
		if (err != nil) != fail {
			t.Fatalf("render error %v, want failure %v", err, fail)
		}
		return b
	}
	expect := func(step string, want int) {
		t.Helper()
		if renders != want {
			t.Fatalf("%s: %d renders, want %d", step, renders, want)
		}
	}

	req := Request{Aggs: allAggs, Bound: 64}
	miss := render(req, false)
	expect("miss", 1)
	first := render(req, false)
	expect("first hit after a miss", 2)
	again := render(req, false)
	expect("second hit", 2)
	if string(first) != string(miss) || &again[0] != &first[0] {
		t.Fatal("hits must return the bytes the first hit stored, equal to the miss's")
	}

	// A failed render is not kept: the next hit renders again.
	other := Request{Aggs: allAggs[:1], Bound: 64}
	render(other, false)
	render(other, true)
	render(other, false)
	render(other, false)
	expect("failed first hit", 5)

	// An append strands the entry and its bytes; the new entry fills anew.
	if _, err := s.Append(pts[:50], ws[:50]); err != nil {
		t.Fatal(err)
	}
	fresh := render(req, false)
	render(req, false)
	render(req, false)
	expect("after an append", 7)
	if string(fresh) == string(first) {
		t.Fatal("the read after an append returned the stranded bytes")
	}

	// With the cache off there is no entry to hold bytes.
	s.SetResultCacheCapacity(0)
	for i := 0; i < 3; i++ {
		render(req, false)
	}
	expect("cache off", 10)
	if resp, _ := s.Do(ctx, req); resp.rendered != nil {
		t.Fatal("an uncached response carries a render slot")
	}
}

// TestRenderedMemoConcurrentFirstHits races first hits on one entry: every
// caller gets the same bytes, and the race detector sees the slot's
// publication ordered.
func TestRenderedMemoConcurrentFirstHits(t *testing.T) {
	s, _, _, _, _, _, _ := fixture(t, 23, 4000, 4)
	req := Request{Aggs: allAggs, Bound: 64}
	if _, err := s.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	got := make([][]byte, n)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Do(context.Background(), req)
			if err != nil {
				t.Error(err)
				return
			}
			var scratch []byte
			got[i], err = resp.Rendered(&scratch, func(b []byte) ([]byte, error) {
				return fmt.Appendf(b, "%v", resp.Results[1].Sums), nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if string(got[i]) != string(got[0]) {
			t.Fatalf("hit %d rendered %q, hit 0 %q", i, got[i], got[0])
		}
	}
}

// TestShardedBoundFinerThanLeafCell: a positive bound finer than the leaf
// cell comes back as the engine's typed error, before any cover build and
// before the result cache is probed, so the refusal counts no miss.
func TestShardedBoundFinerThanLeafCell(t *testing.T) {
	s, _, _, _, _, _, _ := fixture(t, 7, 2000, 4)
	misses := s.Stats().ResultCache.Misses
	_, err := s.Do(context.Background(), Request{Aggs: allAggs, Bound: 5e-324})
	var tf *distbound.BoundTooFineError
	if !errors.As(err, &tf) || tf.Bound != 5e-324 || !(tf.Floor > 0) {
		t.Fatalf("Do at bound 5e-324: %v, want a BoundTooFineError", err)
	}
	if cover := s.engine.CacheStats(); cover.Builds != 0 {
		t.Errorf("a refused bound started %d cover builds", cover.Builds)
	}
	if got := s.Stats().ResultCache.Misses; got != misses {
		t.Errorf("a refused bound counted %d result-cache misses", got-misses)
	}
}
