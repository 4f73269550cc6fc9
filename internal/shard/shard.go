// Package shard partitions a resident point dataset into N contiguous
// SFC-key-range shards — N datasets registered with one engine — and answers
// distance-bounded aggregation queries by scatter-gather: every shard is
// asked, and their partial per-region aggregates merge exactly.
//
// The engine owns what does not depend on the data: the regions and, per
// level, one immutable cover set, built once — by the first scatter that
// finds no ready cover at least as fine as its bound, concurrent scatters
// coalescing onto that build — and shared by every shard. A shard owns only
// its point store and its own span resolution and partials over each set.
//
// Merge guarantees, relative to the same query on one unsharded engine over
// the same points (both sides on the resident point-index strategy):
// COUNT, MIN and MAX are bit-identical — each point contributes to exactly
// the shard owning its key, the per-shard criterion (key ∈ cover range) is
// the same as the unsharded one because covers depend only on the regions,
// domain, curve and level, integer counts add exactly, and float extremes
// merge without arithmetic. SUM agrees up to float reassociation (partials
// add in shard order instead of global key order); AVG derives from the
// merged SUM and COUNT, so it inherits SUM's reassociation bound with an
// exact denominator.
package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"distbound"
	"distbound/internal/cache"
	"distbound/internal/join"
	"distbound/internal/pointstore"
	"distbound/internal/pool"
)

// MaxShards bounds the shard count: point IDs encode the owning shard in
// their top byte (see Append), so at most 256 shards are addressable.
const MaxShards = 256

// shardIDBits is where the owning shard index sits inside a global point ID.
const shardIDBits = 56

// localIDMask extracts a shard-local point ID from a global one.
const localIDMask = (uint64(1) << shardIDBits) - 1

// NoID is the sentinel New reports for a point that fell outside the
// engine domain: such points are excluded from every shard and can never
// be deleted, matching the engine's own out-of-domain drop accounting.
const NoID = math.MaxUint64

// testHookResolved, when set by a test, runs between a scatter's cover
// resolution and its scatter, and returns the cover the scatter reads: it puts
// the scatter in the state a level's arrival in between would leave it in.
var testHookResolved func(*distbound.Cover) *distbound.Cover

// shardState is one shard: its dataset in the shared engine and the
// inclusive SFC key interval it owns.
type shardState struct {
	ds     *distbound.Dataset
	lo, hi uint64
}

// Sharded is a resident dataset partitioned into contiguous key-range
// shards. All methods are safe for concurrent use: queries fan out to
// immutable per-shard snapshots, and mutations route to the per-shard
// datasets' own concurrency machinery.
type Sharded struct {
	name    string
	engine  *distbound.Engine // hosts every shard's dataset and the shared cover sets
	domain  distbound.Domain
	hasW    bool
	dropped int
	shards  []shardState

	// Scatter accounting, all lock-free: queries served and total shards
	// contacted across them. The probe work is the shards' datasets' own
	// (Stats).
	queries  atomic.Uint64
	contacts atomic.Uint64

	// results caches merged scatter-gather responses above the fan-out: a
	// hit skips the per-shard queries and the merge entirely.
	// Invalidation is epoch-sum based — see resultKey. Merged responses are
	// plain GC-managed values (never pooled), so eviction needs no release
	// hook.
	results *cache.LRU[resultKey, *Response]
}

// resultKey identifies one cacheable scatter-gather result. epochSum is the
// sum of every shard's mutation epoch: any Append, Delete or Compact on any
// shard bumps that shard's epoch, moving the sum and stranding every entry
// keyed under the old one — no scanning, no cross-shard locks. level is the
// served level (distbound.Engine.Cover): every bound that level serves folds
// the same cover, so they share an answer. The merge folds in ascending shard
// order for every scatter width, so the width is no part of it.
type resultKey struct {
	epochSum uint64
	level    int
	aggs     uint64 // nibble-packed aggregate set, see join.PackAggs
}

// New partitions pts into at most n contiguous key-range shards and
// registers each run as a resident dataset of one engine over regions.
// Points are linearized over the engine domain and sorted by (key, input
// position) once, and every shard's store is built from its run as is;
// split positions aim at equal point counts but always advance to a key
// change, so equal keys land in one shard and the effective shard count can
// be lower than n on key-collapsed data. Points outside the domain are
// excluded from every shard — they lie outside every region's extent and
// can never match — and reported via Stats().Dropped, mirroring
// RegisterPoints.
//
// The returned ids align with pts: each point's global ID (the currency
// Delete takes, with the owning shard in the top byte), or NoID for a
// dropped point. Weights are required iff weights is non-nil for the whole
// dataset; per-shard registration enforces the same finiteness rules as
// RegisterPoints.
func New(name string, regions []distbound.Region, pts []distbound.Point, weights []float64, n int) (*Sharded, []uint64, error) {
	if name == "" {
		return nil, nil, fmt.Errorf("shard: dataset name must be non-empty")
	}
	if n < 1 || n > MaxShards {
		return nil, nil, fmt.Errorf("shard: shard count %d outside [1, %d]", n, MaxShards)
	}
	if weights != nil && len(weights) != len(pts) {
		return nil, nil, fmt.Errorf("shard: %d weights for %d points", len(weights), len(pts))
	}
	s := newSharded(name, regions, weights != nil)

	// Linearize and key-sort the in-domain points, remembering input
	// positions so registration IDs can be reported back.
	keys, rows := pointstore.SortedKeys(pts, s.domain, distbound.Hilbert)
	s.dropped = len(pts) - len(keys)

	// Split positions: equal counts, advanced to the next key change so a
	// shard's key interval never splits a key. Degenerate (empty) splits
	// collapse, shrinking the effective shard count.
	splits := []int{0}
	for i := 1; i < n; i++ {
		p := len(keys) * i / n
		for p > 0 && p < len(keys) && keys[p] == keys[p-1] {
			p++
		}
		if p >= len(keys) {
			break
		}
		if p > splits[len(splits)-1] {
			splits = append(splits, p)
		}
	}

	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = NoID
	}
	for si, begin := range splits {
		end := len(keys)
		lo, hi := uint64(0), uint64(math.MaxUint64)
		if si > 0 {
			lo = keys[begin]
		}
		if si+1 < len(splits) {
			end = splits[si+1]
			hi = keys[end] - 1
		}
		run := rows[begin:end]
		shardPts := make([]distbound.Point, len(run))
		var shardWs []float64
		if s.hasW {
			shardWs = make([]float64, len(run))
		}
		for k, row := range run {
			shardPts[k] = pts[row]
			if s.hasW {
				shardWs[k] = weights[row]
			}
			ids[row] = globalID(si, uint64(k))
		}
		// Local IDs are positions in the run, as RegisterPoints would assign.
		src, err := pointstore.NewMutableSorted(keys[begin:end:end], shardPts, shardWs, s.domain, distbound.Hilbert)
		if err != nil {
			return nil, nil, fmt.Errorf("shard: building shard %d: %w", si, err)
		}
		ds, err := s.engine.RegisterStore(shardDatasetName(name, si), src)
		if err != nil {
			return nil, nil, fmt.Errorf("shard: registering shard %d: %w", si, err)
		}
		s.shards = append(s.shards, shardState{ds: ds, lo: lo, hi: hi})
	}
	return s, ids, nil
}

// newSharded returns an empty partition: one engine to host the shards, and
// the merged result cache above the scatter — the engine caches no answers,
// so every miss executes on the shards.
func newSharded(name string, regions []distbound.Region, hasW bool) *Sharded {
	return &Sharded{
		name:    name,
		engine:  distbound.NewEngine(regions),
		domain:  distbound.DomainForRegions(regions...),
		hasW:    hasW,
		results: cache.NewLRU[resultKey, *Response](distbound.DefaultResultCacheCapacity),
	}
}

// shardDatasetName is shard i's registration name inside the shared engine.
func shardDatasetName(name string, i int) string { return fmt.Sprintf("%s/%03d", name, i) }

// globalID packs a shard index and shard-local point ID into the sharded
// dataset's ID currency.
func globalID(shard int, local uint64) uint64 {
	return uint64(shard)<<shardIDBits | (local & localIDMask)
}

// Name returns the sharded dataset's name.
func (s *Sharded) Name() string { return s.name }

// NumShards returns the effective shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// NumRegions returns the region count every result column spans.
func (s *Sharded) NumRegions() int { return s.engine.NumRegions() }

// Len returns the number of live points across all shards.
func (s *Sharded) Len() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].ds.Len()
	}
	return n
}

// MemoryBytes returns the resident footprint summed across shards.
func (s *Sharded) MemoryBytes() int {
	n := 0
	for i := range s.shards {
		n += s.shards[i].ds.MemoryBytes()
	}
	return n
}

// Request is one scatter-gather aggregation query.
type Request struct {
	// Aggs is the aggregate set, answered in one fan-out; at least one is
	// required. Response.Results aligns with it positionally.
	Aggs []distbound.Agg
	// Bound is the distance bound ε; it must be positive — the shards answer
	// from covers, which exist only for distance-bounded execution.
	Bound float64
}

// Response is the merged outcome of one scatter-gather query.
type Response struct {
	// Results holds one merged Result per requested aggregate, positionally
	// aligned with Request.Aggs, each spanning every region.
	Results []distbound.Result
	// ShardsTotal is the partition width: every scatter asks every shard.
	ShardsTotal int
	// RangesProbed / DeltaProbed sum the shards' probe counters:
	// the work this scatter performed (see distbound.Response), 0 on a
	// result-cache hit.
	RangesProbed int
	DeltaProbed  int
	// Wall is the whole scatter-gather's execution time.
	Wall time.Duration
	// ServedBound is the distance bound every shard's answer meets, ≤
	// Request.Bound: the cell diagonal of the one cover the scatter read
	// (distbound.Response.ServedBound).
	ServedBound float64

	// rendered is the result-cache entry's byte slot (see Rendered); nil on a miss.
	rendered *atomic.Pointer[[]byte]
}

// Rendered returns the bytes render appends for r: rendered into *scratch,
// which keeps them and any growth, unless r's result-cache entry holds them,
// which leaves *scratch empty. The first hit on an entry keeps an exact-size
// copy for later hits (racing first hits both render, harmlessly), so an
// entry never hit keeps none. render may read only what the entry fixes:
// Results, ShardsTotal and ServedBound. A failed render keeps nothing.
func (r *Response) Rendered(scratch *[]byte, render func([]byte) ([]byte, error)) ([]byte, error) {
	if r.rendered != nil {
		if b := r.rendered.Load(); b != nil {
			*scratch = (*scratch)[:0]
			return *b, nil
		}
	}
	b, err := render((*scratch)[:0])
	*scratch = b
	if err != nil || r.rendered == nil {
		return b, err
	}
	memo := append([]byte(nil), b...)
	r.rendered.Store(&memo)
	return memo, nil
}

// Do answers one aggregation query: scatter to every shard, gather and
// merge. Canceling ctx unwinds the fan-out promptly and returns ctx.Err().
// Safe for concurrent use.
func (s *Sharded) Do(ctx context.Context, req Request) (Response, error) {
	t0 := time.Now()
	if len(req.Aggs) == 0 {
		return Response{}, fmt.Errorf("shard: request needs at least one aggregate")
	}
	if !(req.Bound > 0) {
		return Response{}, fmt.Errorf("shard: scatter-gather requires a positive bound, got %v", req.Bound)
	}
	// The served level is resolved once, before the probe: the cover the
	// engine's rule serves the bound from (its own level, or the coarsest
	// ready finer one), built on a miss with every core. The key holds that
	// level, and every shard is asked at its cell diagonal, which resolves to
	// that same level: a ready level is never evicted. A bound too fine for
	// any cover is refused here, before the probe could count a miss for a
	// request no shard answers.
	cov, err := s.engine.Cover(ctx, req.Bound)
	if err != nil {
		return Response{}, err
	}
	if testHookResolved != nil {
		cov = testHookResolved(cov)
	}
	// Result-cache probe above the whole fan-out. The epoch sum is read here,
	// before any shard executes: an entry's data is at least as new as the
	// epochs in its key, so a hit serves data at least as new as this scatter
	// could have observed by executing. A hit's Results are the cached entry's
	// own slices; callers must treat them as read-only, which every
	// merge/wire consumer does. A disabled cache, or an aggregate set the
	// key cannot pack, bypasses it.
	aggs, cacheable := join.PackAggs(req.Aggs)
	cacheable = cacheable && s.results.Enabled()
	key := resultKey{epochSum: s.EpochSum(), level: cov.Level(), aggs: aggs}
	if cacheable {
		if c, ok := s.results.Get(key); ok {
			s.queries.Add(1)
			out := *c
			out.Wall = time.Since(t0)
			return out, nil
		}
	}
	out := Response{
		Results:     join.NewResults(req.Aggs, s.engine.NumRegions()),
		ShardsTotal: len(s.shards),
		ServedBound: cov.ServedBound(),
	}
	// Scatter, up to GOMAXPROCS shards at a time: at a positive bound the
	// engine's rule runs every shard on the resident point-index strategy —
	// the one whose per-shard answers merge with the documented identity
	// guarantees — each at the served bound of the cover resolved above.
	parts := make([]distbound.Response, len(s.shards))
	err = pool.RunCtx(ctx, len(s.shards), pool.Workers(0, len(s.shards)), func(_, i int) error {
		resp, err := s.engine.Do(ctx, distbound.Request{
			Dataset: s.shards[i].ds,
			Aggs:    req.Aggs,
			Bound:   cov.ServedBound(),
		})
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		parts[i] = resp
		return nil
	})
	if err != nil {
		// Partial responses stay unreleased — an unreleased Response is
		// ordinary garbage, and a failed sibling may still be writing.
		if ce := ctx.Err(); ce != nil {
			return Response{}, ce
		}
		return Response{}, err
	}

	// Gather: merge in ascending shard order, so float sums associate
	// identically for every scatter width. A part read from another level
	// than the scatter's cover would merge two levels' answers under one
	// served_bound, so it fails the scatter.
	for i := range parts {
		if parts[i].ServedBound != cov.ServedBound() {
			return Response{}, fmt.Errorf("shard %d: answered at %g m, not at the scatter's %g m", i, parts[i].ServedBound, cov.ServedBound())
		}
		join.MergeResults(out.Results, parts[i].Results)
		out.RangesProbed += parts[i].RangesProbed
		out.DeltaProbed += parts[i].DeltaProbed
		parts[i].Release()
	}
	// Only an answered scatter is counted, so Queries and ContactedTotal
	// describe answers; one that failed above returned its error instead.
	s.queries.Add(1)
	s.contacts.Add(uint64(len(s.shards)))
	out.Wall = time.Since(t0)
	if cacheable {
		// The merged Results are freshly allocated and never pooled, so the
		// cache stores them directly — no copy, no refcount. A hit probes
		// nothing, so the cached copy carries no probe counters.
		c := out
		c.RangesProbed, c.DeltaProbed = 0, 0
		c.rendered = new(atomic.Pointer[[]byte])
		s.results.Put(key, &c)
	}
	return out, nil
}

// SetResultCacheCapacity re-bounds the scatter-gather result cache — the
// only result cache on the path, the engine keeping none; 0 disables it, and
// every Do then executes on the shards.
func (s *Sharded) SetResultCacheCapacity(n int) { s.results.SetCapacity(n) }

// EpochSum returns the sum of every shard's mutation epoch — the
// invalidation counter the result cache keys on. Any mutation on any shard
// moves it.
func (s *Sharded) EpochSum() uint64 {
	var sum uint64
	for i := range s.shards {
		sum += s.shards[i].ds.Epoch()
	}
	return sum
}

// Append routes points to the shards owning their keys and appends each
// group through the shard's dataset, returning global IDs aligned with pts.
// Validation is atomic across shards: a point outside the domain, or a
// weight-column mismatch, rejects the whole batch before any shard is
// touched. Past validation every shard's group is attempted; when a shard
// refuses its group (its durable log failed: the shard is wedged, see
// DurableErr) the rows the other shards accepted stay appended and keep their
// IDs, the refused rows report NoID, and the joined error names each such
// shard — the contract Delete has. Appended points are visible to queries
// issued after Append returns; a shard whose delta crosses its compaction
// threshold compacts in the background exactly as an unsharded dataset would.
func (s *Sharded) Append(pts []distbound.Point, weights []float64) ([]uint64, error) {
	if s.hasW != (weights != nil) && len(pts) > 0 {
		if s.hasW {
			return nil, fmt.Errorf("shard: dataset has a weight column; Append requires weights")
		}
		return nil, fmt.Errorf("shard: dataset has no weight column; Append must not supply weights")
	}
	if weights != nil && len(weights) != len(pts) {
		return nil, fmt.Errorf("shard: %d weights for %d points", len(weights), len(pts))
	}
	type group struct {
		pts  []distbound.Point
		ws   []float64
		rows []int // positions in pts
	}
	groups := make([]group, len(s.shards))
	for i, p := range pts {
		key, ok := s.domain.LeafPos(distbound.Hilbert, p)
		if !ok {
			return nil, fmt.Errorf("shard: appended point %v lies outside the domain (origin %v, size %g)",
				p, s.domain.Origin, s.domain.Size)
		}
		g := &groups[s.owner(key)]
		g.pts = append(g.pts, p)
		if s.hasW {
			g.ws = append(g.ws, weights[i])
		}
		g.rows = append(g.rows, i)
	}
	ids := make([]uint64, len(pts))
	for i := range ids {
		ids[i] = NoID
	}
	var errs []error
	for si, g := range groups {
		if len(g.pts) == 0 {
			continue
		}
		local, err := s.shards[si].ds.Append(g.pts, g.ws)
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", si, err))
			continue
		}
		for k, li := range local {
			if li > localIDMask {
				errs = append(errs, fmt.Errorf("shard %d: local ID %d overflows the %d-bit ID space", si, li, shardIDBits))
				break
			}
			ids[g.rows[k]] = globalID(si, li)
		}
	}
	return ids, errors.Join(errs...)
}

// owner returns the index of the shard owning key: shard intervals are
// contiguous and ascending, so it is the last shard whose Lo is ≤ key.
func (s *Sharded) owner(key uint64) int {
	return sort.Search(len(s.shards), func(i int) bool { return s.shards[i].lo > key }) - 1
}

// Delete removes points by global ID (the currency New and Append return),
// returning how many were live. IDs naming unknown shards, or unknown or
// already-deleted local IDs, are skipped — the same idempotence as
// Dataset.Delete. Every shard's group is attempted; a shard whose durable log
// refused the deletion still counts its in-memory removals, and the joined
// error names each such shard (they are wedged: see DurableErr).
//
//distbound:api the delete chain (Sharded.Delete, Dataset.Delete, Durable.Delete) has no endpoint yet
func (s *Sharded) Delete(ids ...uint64) (int, error) {
	groups := make([][]uint64, len(s.shards))
	for _, id := range ids {
		if id == NoID {
			continue
		}
		si := int(id >> shardIDBits)
		if si >= len(s.shards) {
			continue
		}
		groups[si] = append(groups[si], id&localIDMask)
	}
	n := 0
	var errs []error
	for si, local := range groups {
		if len(local) == 0 {
			continue
		}
		k, err := s.shards[si].ds.Delete(local...)
		n += k
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", si, err))
		}
	}
	return n, errors.Join(errs...)
}

// Compact synchronously compacts every shard — mainly a test and benchmark
// convenience; production shards compact in the background on their own
// thresholds. It returns the shards' errors joined, each naming its shard.
//
//distbound:api test seam: tests and benchmarks compact every shard synchronously
func (s *Sharded) Compact() error {
	var errs []error
	for i := range s.shards {
		if err := s.shards[i].ds.Compact(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// SetCompactionThreshold forwards the auto-compaction threshold to every
// shard's dataset.
//
//distbound:api tuning knob forwarded to every shard; tests disable auto-compaction with it
func (s *Sharded) SetCompactionThreshold(n int) {
	for i := range s.shards {
		s.shards[i].ds.SetCompactionThreshold(n)
	}
}

// ShardInfo is one shard's accounting snapshot, and its entry in the
// daemon's /v1/stats "shards" array.
type ShardInfo struct {
	// LoKey and HiKey bound the shard's owned SFC key interval, inclusive.
	LoKey uint64 `json:"lo_key,string"`
	HiKey uint64 `json:"hi_key,string"`
	// Live is the shard's live point count; Generation its compaction
	// generation; Epoch its mutation epoch.
	Live       int    `json:"live"`
	Generation uint64 `json:"generation"`
	Epoch      uint64 `json:"epoch"`
	// CoverStateBytes is the shard's own state over the resident cover sets.
	CoverStateBytes int `json:"cover_state_bytes"`
}

// Stats is a point-in-time accounting snapshot of the sharded dataset.
type Stats struct {
	// Shards is the effective partition width; Dropped counts points that
	// fell outside the domain at construction.
	Shards  int
	Dropped int
	// Live and MemoryBytes sum the shards' live point counts and resident
	// footprints.
	Live        int
	MemoryBytes int
	// Queries counts answered Do calls, result-cache hits included;
	// ContactedTotal sums their fan-outs, a hit contacting none (the mean
	// fan-out is ContactedTotal/Queries); MaxFanOut is the partition width
	// once any scatter has executed, else 0.
	Queries        uint64
	ContactedTotal uint64
	MaxFanOut      int
	// RangesProbed and DeltaProbed sum the shards' probe work
	// (distbound.DatasetStats): their reads' (Response.RangesProbed,
	// Response.DeltaProbed) and their maintainers', which invert appended
	// rows and refill after a background compaction ahead of the reads. A
	// result-cache hit adds none.
	RangesProbed uint64
	DeltaProbed  uint64
	// EpochSum is the result cache's invalidation counter: the sum of every
	// shard's mutation epoch. ResultCache reports the merged-layer cache.
	EpochSum    uint64
	ResultCache cache.Stats
	// Covers reports the shared cover builds (distbound.Engine.CacheStats) —
	// Builds is one per level built, whatever the shard count, and a bound a
	// ready finer level serves builds none — and CoverBytes the resident
	// sets' footprint, counted once; PerShard carries each shard's own state
	// over them.
	Covers     cache.Stats
	CoverBytes int
	// PerShard holds one entry per shard, in key order.
	PerShard []ShardInfo
}

// Stats returns the sharded dataset's current accounting snapshot.
func (s *Sharded) Stats() Stats {
	st := Stats{
		Shards:         len(s.shards),
		Dropped:        s.dropped,
		Queries:        s.queries.Load(),
		ContactedTotal: s.contacts.Load(),
		ResultCache:    s.results.Stats(),
		CoverBytes:     s.engine.CoverBytes(),
	}
	if st.ContactedTotal > 0 {
		st.MaxFanOut = len(s.shards)
	}
	st.Covers = s.engine.CacheStats()
	for i := range s.shards {
		d := s.shards[i].ds.Stats()
		st.Live += d.Live
		st.MemoryBytes += s.shards[i].ds.MemoryBytes()
		st.EpochSum += d.Epoch
		st.RangesProbed += uint64(d.RangesProbed)
		st.DeltaProbed += uint64(d.DeltaProbed)
		st.PerShard = append(st.PerShard, ShardInfo{
			LoKey:      s.shards[i].lo,
			HiKey:      s.shards[i].hi,
			Live:       d.Live,
			Generation: d.Generation,
			Epoch:      d.Epoch,

			CoverStateBytes: d.CoverStateBytes,
		})
	}
	return st
}

// Close unregisters every shard's dataset, flushing and closing durable
// logs where Persist bound them; the on-disk files stay valid for Open. Each
// shard's joiners are cleared with it, so nothing in the engine pins the
// stores.
func (s *Sharded) Close() {
	for i := range s.shards {
		s.engine.UnregisterPoints(shardDatasetName(s.name, i))
	}
}
