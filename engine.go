package distbound

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distbound/internal/cache"
	"distbound/internal/join"
	"distbound/internal/planner"
	"distbound/internal/pointstore"
	"distbound/internal/pointstore/persist"
	"distbound/internal/sfc"
)

// Strategy identifies a physical plan for an aggregation query (§4).
type Strategy = planner.Strategy

// Physical plan strategies.
const (
	StrategyExact    = planner.StrategyExact
	StrategyACT      = planner.StrategyACT
	StrategyBRJ      = planner.StrategyBRJ
	StrategyPointIdx = planner.StrategyPointIdx
)

// maskCacheCapacity bounds the BRJ mask cache, in distinct bounds, tight: one
// cached bound holds 8 bytes per covered row span of every region mask, plus
// one retained set of point buffers sized by the last call's points
// (BRJJoiner.MemoryBytes reports a resident set's footprint). A long-running
// server that has asked more bounds evicts the least recently used set. It
// also caps how many mask builds run concurrently.
const maskCacheCapacity = 2

// Engine answers spatial aggregation queries over a fixed region set. For an
// ad-hoc point set a rule on the bound (planner.ChooseInto, §4) chooses the
// physical plan — the exact join, the approximate cell-lookup join (act) or
// the Bounded Raster Join; a dataset registered with RegisterPoints has one
// plan, the resident cover-range fold over its sorted keys, whenever the
// bound is positive.
//
// Do is the entry point: one Request names a target (an ad-hoc PointSet or
// a registered *Dataset), a set of aggregates answered in a single pass,
// the bound, and optional per-request overrides, under a context whose
// cancellation unwinds the query promptly.
//
// Engine is a serving layer: all methods are safe for concurrent use by any
// number of goroutines. Lazily built artifacts (the exact cover — interior and
// boundary cells at one coarse level, with each region's point locator — one
// set of BRJ region masks per bound, and one cover set per level — the one
// artifact both the ad-hoc act join and every registered dataset answer from)
// are cached with singleflight build deduplication — concurrent misses on the
// same key run one build and share it. The masks sit in a small LRU; a cover
// level once built stays. Neither strategy rule reads what is cached. The
// cover a bound is served from does depend on it: a resident finer level
// serves every coarser bound, and a bound's own level is built only when no
// ready level is at least as fine (see coverCtx; Response.ServedBound reports
// the level that served). So each level is built at most once, and since a
// cover table doubles per level, every level ever built holds at most about
// twice the finest one's bytes.
type Engine struct {
	regions []Region
	domain  Domain

	exact *cache.Cache[struct{}, *join.ExactCover] // the one exact cover; see covers.go
	brj   *cache.Cache[float64, *join.BRJJoiner]

	dsMu     sync.RWMutex // guards datasets, which reserves registered names
	datasets map[string]*Dataset
	covers   *cache.Cache[int, *Cover] // one entry per level (raster.BoundLevel), none evicted; see covers.go

	// scratch recycles respScratch instances across Do calls; it makes the
	// warm resident path allocation-free for callers that Release their
	// Responses.
	scratch sync.Pool
}

// getScratch hands out a pooled respScratch bound to this engine.
//
//distbound:allow-scratch-escape pool accessor; Do pairs every get with Release
func (e *Engine) getScratch() *respScratch {
	if sc, ok := e.scratch.Get().(*respScratch); ok {
		return sc
	}
	return &respScratch{e: e}
}

// NewEngine creates an engine over the region set.
func NewEngine(regions []Region) *Engine {
	return &Engine{
		regions:  regions,
		domain:   DomainForRegions(regions...),
		exact:    cache.New[struct{}, *join.ExactCover](1),
		brj:      cache.New[float64, *join.BRJJoiner](maskCacheCapacity),
		datasets: map[string]*Dataset{},
		covers:   cache.New[int, *Cover](sfc.MaxLevel + 1),
	}
}

// DefaultResultCacheCapacity is the default bound, in distinct merged
// answers, of the serving layer's result cache (shard.Sharded; the daemon's
// -result-cache flag). Entries are one result column set per distinct
// (epoch sum, level, aggregate set) — a few hundred bytes per region set of
// ordinary width — so the default is sized for request diversity, not
// memory pressure.
const DefaultResultCacheCapacity = 1024

// SetResultCacheCapacity does nothing: the engine keeps no result cache, and
// every Do executes. The one result cache on any path sits above the
// scatter, in shard.Sharded. The method stays until ROADMAP item 1 unpins
// the benchmark harness, which still calls it.
//
//distbound:api no-op kept for the benchmark harness, which calls it
func (e *Engine) SetResultCacheCapacity(int) {}

// NumRegions returns how many regions the engine aggregates over — the
// width of every result column.
func (e *Engine) NumRegions() int { return len(e.regions) }

// DefaultCompactionThreshold is the un-compacted state (delta rows plus
// tombstones) at which a dataset schedules a background compaction after a
// mutation. Tune per dataset with SetCompactionThreshold.
const DefaultCompactionThreshold = 1 << 16

// Dataset is a handle to a live point dataset registered with
// RegisterPoints: an SFC-sorted base key column with per-block sum/min/max
// columns, plus an append-only delta buffer and tombstone set for
// points added or removed since the last compaction.
// Handles are safe for concurrent use: queries read immutable snapshots, so
// they never observe a torn mutation, and Append/Delete/Compact may race
// queries and each other freely. Queries taking a handle may be answered by
// StrategyPointIdx without re-streaming the points.
type Dataset struct {
	name string
	src  *pointstore.Mutable
	e    *Engine // the registering engine, whose covers the joiners read
	// gone is set, once, when UnregisterPoints releases the handle; from
	// then on every request taking it is refused.
	gone atomic.Bool
	// joiners holds the dataset's span resolution and partials over each
	// level's cover set, by level, attached on the level's first read.
	joiners [sfc.MaxLevel + 1]atomic.Pointer[join.PointIdxJoiner]

	// dur, when set, binds the dataset to its on-disk snapshot + log (see
	// Persist/OpenDataset in durable.go): mutations route through it so the
	// log stays complete, and compactions checkpoint through it. Reads never
	// touch it — queries keep loading src's snapshots directly.
	dur atomic.Pointer[persist.Durable]

	compactThreshold atomic.Int64
	compacting       atomic.Bool

	// compactMu serializes dataset-level compactions, manual and background
	// alike.
	compactMu sync.Mutex
}

// DatasetStats is a point-in-time accounting snapshot of a dataset — the
// generation-aware counterpart of the engine's CacheStats.
type DatasetStats struct {
	// Generation counts completed compactions; cover sets survive
	// generation changes (they depend only on the regions), but every query
	// issued after the swap probes the new base.
	Generation uint64
	// Live is the number of queryable points.
	Live int
	// Base is the sorted base column's row count, tombstones included.
	Base int
	// Tombstones is the number of base rows deleted since the last
	// compaction.
	Tombstones int
	// DeltaLive / DeltaDead split the un-compacted tail into rows still
	// queryable and rows deleted again before compaction collected them.
	DeltaLive, DeltaDead int
	// Epoch is the dataset's mutation counter: every Append, Delete and
	// Compact bumps it. The sharded layer's result cache keys on the sum of
	// its shards' epochs, so a move here strands every merged answer that
	// read this dataset.
	Epoch uint64
	// CoverStateBytes is the dataset's own point-index state (span
	// resolutions, partials) over the shared cover sets (Engine.CoverBytes).
	CoverStateBytes int

	// Durable reports whether the dataset is bound to an on-disk snapshot +
	// write-ahead log (Persist/OpenDataset); the fields below are zero
	// otherwise.
	Durable bool
	// SnapshotBytes is the snapshot file's size; WALRecords and WALBytes
	// measure the log of mutations acknowledged since the last checkpoint.
	SnapshotBytes int64
	WALRecords    uint64
	WALBytes      int64
	// RecoveryWall is how long OpenDataset took to load, validate and
	// replay this dataset; zero for a dataset persisted in this process.
	RecoveryWall time.Duration
	// DurableErr is the sticky wedge error: non-nil after a log write or
	// sync failure, when further mutations are refused because the log no
	// longer captures the acknowledged history. CheckpointErr is the most
	// recent checkpoint failure; a checkpoint that fails before its
	// snapshot rename is retried at the next compaction without wedging
	// the dataset, while a directory-sync failure after the rename also
	// wedges (DurableErr), because which generation a crash would
	// resurface is unknowable.
	DurableErr    error
	CheckpointErr error
}

// Len returns the number of live points in the dataset.
func (d *Dataset) Len() int { return d.src.Len() }

// Dropped returns how many registration-time points fell outside the
// engine's domain and are excluded from the resident index. Such points lie
// outside every region's extent and can never match; the streaming
// strategies skip them the same way, so all plans agree. Append rejects
// out-of-domain points outright, so the count never grows after
// registration.
func (d *Dataset) Dropped() int { return d.src.Dropped() }

// MemoryBytes returns the resident artifact's footprint (columns, retained
// coordinates, delta tail and tombstones).
func (d *Dataset) MemoryBytes() int { return d.src.MemoryBytes() }

// Epoch returns the dataset's mutation epoch — bumped by every Append,
// Delete and Compact that changed anything. Layers above the engine (the
// shard scatter-gather, the serving daemon) key their result cache on it.
//
//distbound:noalloc
func (d *Dataset) Epoch() uint64 { return d.src.Epoch() }

// Stats returns the dataset's current accounting snapshot.
func (d *Dataset) Stats() DatasetStats {
	s := d.src.Snapshot()
	st := DatasetStats{
		Generation: s.Gen(),
		Epoch:      s.Epoch(),
		Live:       s.LiveLen(),
		Base:       s.BaseLen(),
		Tombstones: s.Tombstones(),
		DeltaLive:  s.DeltaLiveLen(),
		DeltaDead:  s.DeltaLen() - s.DeltaLiveLen(),
	}
	d.eachJoiner(func(j *join.PointIdxJoiner) { st.CoverStateBytes += j.MemoryBytes() })
	if dur := d.dur.Load(); dur != nil {
		ps := dur.Stats()
		st.Durable = true
		st.SnapshotBytes = ps.SnapshotBytes
		st.WALRecords = ps.WALRecords
		st.WALBytes = ps.WALBytes
		st.RecoveryWall = ps.RecoveryWall
		st.DurableErr = ps.Err
		st.CheckpointErr = ps.CheckpointErr
	}
	return st
}

// Points returns a copy of the dataset's live points (and weights, when the
// dataset has them): base survivors in key order followed by un-compacted
// appends in append order. This is the relation a fresh RegisterPoints of
// the surviving data would receive.
//
//distbound:api library accessor: the live relation, which the differential tests re-register as their oracle
func (d *Dataset) Points() ([]Point, []float64) {
	return d.src.Snapshot().Materialize()
}

// Append adds points to the dataset, assigning and returning their IDs (the
// currency Delete takes). Weights are required iff the dataset was
// registered with a weight column, and must be finite; a point outside the
// engine's domain rejects the whole batch. Appended points are visible to
// every query issued after Append returns — they are served from the delta
// buffer until a compaction folds them into the sorted base. Crossing the
// compaction threshold schedules a background compaction.
func (d *Dataset) Append(pts []Point, weights []float64) ([]uint64, error) {
	var ids []uint64
	var err error
	if dur := d.dur.Load(); dur != nil {
		ids, err = dur.Append(pts, weights)
	} else {
		ids, err = d.src.Append(pts, weights)
	}
	if err != nil {
		return nil, fmt.Errorf("distbound: appending to dataset %q: %w", d.name, err)
	}
	d.maybeCompact()
	return ids, nil
}

// Delete removes points by ID, returning how many were live (unknown or
// already-deleted IDs are skipped). Registration-time points carry the IDs
// 0..n-1 in input order (out-of-domain drops consume an ID without ever
// being live); appended points carry the IDs Append returned. Deletions are
// visible to every query issued after Delete returns.
//
// The first Delete naming a base ID (not one appended since the last
// compaction) builds the base's ID index: 16 B a row, ≈22 ms a million rows
// on two cores. Later deletes reuse it until the next compaction.
//
// On a durable dataset a deletion that fails to reach the log still returns
// its live count — the removal is visible in memory — but the dataset wedges
// (later mutations are refused, Stats().DurableErr stays set) and the error
// reports it at the call site. On a non-durable dataset the error is always
// nil.
//
//distbound:api the delete chain (Sharded.Delete, Dataset.Delete, Durable.Delete) has no endpoint yet
func (d *Dataset) Delete(ids ...uint64) (int, error) {
	var n int
	var err error
	if dur := d.dur.Load(); dur != nil {
		if n, err = dur.Delete(ids...); err != nil {
			err = fmt.Errorf("distbound: deleting from dataset %q: %w", d.name, err)
		}
	} else {
		n = d.src.Delete(ids...)
	}
	if n > 0 {
		d.maybeCompact()
	}
	return n, err
}

// Compact synchronously merges the delta buffer and tombstones into a
// freshly sorted base and swaps it in atomically, bumping Generation.
// In-flight queries finish on the pre-compaction snapshot; queries issued
// after Compact returns probe the new base with an empty delta. Appends and
// deletes block for the duration; queries never do.
func (d *Dataset) Compact() {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()
	if dur := d.dur.Load(); dur != nil {
		// Durable datasets checkpoint instead: the same radix merge, then the
		// result replaces the on-disk snapshot atomically and the log is
		// retired. A checkpoint that fails before the snapshot rename leaves
		// the previous snapshot+log pair in charge and is retried at the next
		// compaction, reported via Stats().CheckpointErr; a directory-sync
		// failure after the rename wedges the dataset (Stats().DurableErr),
		// because the on-disk generation is ambiguous.
		dur.Checkpoint() //nolint:errcheck // surfaced via Stats().CheckpointErr
	} else {
		d.src.Compact()
	}
}

// SetCompactionThreshold sets how much un-compacted state (delta rows plus
// tombstones) a mutation tolerates before scheduling a background
// compaction; n ≤ 0 disables auto-compaction (Compact still works). The
// default is DefaultCompactionThreshold.
//
//distbound:api library tuning knob; tests pin compaction timing with it
func (d *Dataset) SetCompactionThreshold(n int) { d.compactThreshold.Store(int64(n)) }

// maybeCompact schedules a background compaction when the un-compacted
// state crosses the threshold. The CAS guard keeps at most one compaction
// goroutine per dataset in flight; that goroutine keeps compacting while
// mutations that landed during a merge leave the pending state over the
// threshold (their own maybeCompact calls CAS-fail against it), and
// re-arms once more after releasing the guard to close the race with a
// mutation that crossed the threshold between its last check and the
// release.
//
// After each publish the goroutine also brings the dataset's joiners up to
// the new base (refreshJoiners), so the span re-resolution
// and base refill a compaction forces are paid here, off the read path,
// rather than by the first query to arrive afterwards. A synchronous
// Compact caller is never charged for it — its next query is, as before.
func (d *Dataset) maybeCompact() {
	th := d.compactThreshold.Load()
	if th <= 0 || int64(d.src.Pending()) < th {
		return
	}
	if !d.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		for {
			d.Compact()
			d.refreshJoiners()
			th := d.compactThreshold.Load()
			if th <= 0 || int64(d.src.Pending()) < th {
				break
			}
		}
		d.compacting.Store(false)
		d.maybeCompact()
	}()
}

// RegisterPoints builds the resident artifact for a point dataset over the
// engine's domain and registers it under name, returning the query handle.
// The dataset is live: Dataset.Append and Dataset.Delete mutate it after
// registration, with Dataset.Compact (manual or threshold-triggered) folding
// the accumulated delta back into the sorted base. The weight column may be
// nil, restricting the dataset to COUNT aggregations; weights must be finite
// (a NaN/Inf weight would make every SUM, AVG, MIN and MAX that reads it
// non-finite, which no answer on the wire can carry). The build is one sort
// plus one pass that derives the block aggregate columns; the engine keeps its own columns, so the
// caller may reuse pts and weights freely afterwards. Registering an already
// registered name is an error.
func (e *Engine) RegisterPoints(name string, pts []Point, weights []float64) (*Dataset, error) {
	if err := e.checkFreeName(name); err != nil {
		return nil, err
	}
	src, err := pointstore.NewMutable(pts, weights, e.domain, Hilbert)
	if err != nil {
		return nil, fmt.Errorf("distbound: building point store: %w", err)
	}
	return e.register(name, src, nil)
}

// RegisterStore is RegisterPoints for a store the caller already built —
// the seam internal/shard hands each shard's presorted run through
// (pointstore is internal, so no caller outside the module can name one).
func (e *Engine) RegisterStore(name string, src *pointstore.Mutable) (*Dataset, error) {
	if err := e.checkFreeName(name); err != nil {
		return nil, err
	}
	return e.register(name, src, nil)
}

// checkFreeName is the cheap pre-build rejection of an empty or taken name;
// register re-checks under the write lock.
func (e *Engine) checkFreeName(name string) error {
	if name == "" {
		return fmt.Errorf("distbound: dataset name must be non-empty")
	}
	e.dsMu.RLock()
	_, dup := e.datasets[name]
	e.dsMu.RUnlock()
	if dup {
		return fmt.Errorf("distbound: dataset %q already registered", name)
	}
	return nil
}

// register installs src (bound to dur when recovered from disk) as dataset
// name. The store must be linearized over this engine's domain and curve —
// covers computed here would otherwise probe foreign keys.
func (e *Engine) register(name string, src *pointstore.Mutable, dur *persist.Durable) (*Dataset, error) {
	if src.Domain() != e.domain || src.Curve().Name() != Hilbert.Name() {
		return nil, fmt.Errorf("distbound: dataset %q is linearized over domain (origin %v, size %g, curve %s); this engine's is (origin %v, size %g, curve %s)",
			name, src.Domain().Origin, src.Domain().Size, src.Curve().Name(),
			e.domain.Origin, e.domain.Size, Hilbert.Name())
	}
	ds := &Dataset{name: name, src: src, e: e}
	if dur != nil {
		ds.dur.Store(dur)
	}
	ds.compactThreshold.Store(DefaultCompactionThreshold)
	e.dsMu.Lock()
	defer e.dsMu.Unlock()
	if _, dup := e.datasets[name]; dup {
		return nil, fmt.Errorf("distbound: dataset %q already registered", name)
	}
	e.datasets[name] = ds
	return ds, nil
}

// UnregisterPoints removes the dataset registered under name, freeing the
// name for re-registration; it reports whether a dataset was registered.
// Outstanding queries holding the old handle fail their next call. The
// handle's joiners are cleared, and no cover references a dataset, so nothing
// in the engine keeps its store reachable; the shared cover sets stay cached.
// For a durable dataset the on-disk files stay behind — only the handle's
// log is flushed and closed — so OpenDataset can resurrect it later.
func (e *Engine) UnregisterPoints(name string) bool {
	e.dsMu.Lock()
	ds, ok := e.datasets[name]
	if ok {
		delete(e.datasets, name)
		ds.gone.Store(true)
	}
	e.dsMu.Unlock()
	if ok {
		for i := range ds.joiners {
			ds.joiners[i].Store(nil)
		}
		if dur := ds.dur.Load(); dur != nil {
			dur.Close() //nolint:errcheck // flush-and-release; files stay valid
		}
	}
	return ok
}

// checkDataset rejects handles that were not registered with this engine —
// a foreign handle's store is keyed over a different domain, so probing it
// with this engine's covers would silently return garbage — and handles
// UnregisterPoints has released. The handle answers both; no lock is taken.
func (e *Engine) checkDataset(ds *Dataset) error {
	if ds == nil {
		return fmt.Errorf("distbound: nil dataset handle")
	}
	if ds.e != e || ds.gone.Load() {
		return fmt.Errorf("distbound: dataset %q is not registered with this engine", ds.name)
	}
	return nil
}

// brjJoinerCtx returns the mask-cached raster joiner for the bound, building
// it under the cache's singleflight on a miss. A cold build rasterizes across
// the request's worker budget, so it never exceeds the parallelism the query
// itself was granted; canceling ctx abandons the wait (and the build itself,
// once no caller remains interested in it).
func (e *Engine) brjJoinerCtx(ctx context.Context, bound float64, workers int) (*join.BRJJoiner, error) {
	bj, err := e.brj.GetOrBuildCtx(ctx, bound, func(bctx context.Context) (*join.BRJJoiner, error) {
		return join.NewBRJJoinerCtx(bctx, e.regions, e.domain.Bounds(), bound, 0, workers)
	})
	if err != nil {
		return nil, fmt.Errorf("distbound: building BRJ canvases: %w", err)
	}
	return bj, nil
}

// CacheStats reports the cover cache's counters (hits, misses, builds,
// coalesced waits on in-flight builds; it evicts nothing). The cache is keyed
// by level alone — one build per level built however many bounds it serves,
// datasets and ad-hoc act requests use it, and none for a bound a ready
// finer level serves — and entries survive dataset compactions, so a
// steady-state ingest workload shows cover hits, not rebuilds, across
// generations; the per-dataset generation and delta accounting lives in
// Dataset.Stats.
func (e *Engine) CacheStats() cache.Stats {
	return e.covers.Stats()
}
