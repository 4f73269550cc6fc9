package distbound

import (
	"context"
	"fmt"
	"sync"

	"distbound/internal/join"
	"distbound/internal/pointstore"
	"distbound/internal/raster"
)

// BoundTooFineError refuses a positive Bound finer than Floor, the leaf cell's
// diagonal: no cover can meet it, so it is refused before any build starts.
type BoundTooFineError = raster.BoundTooFineError

// coverEntry is one resident level of the cover cache: the immutable cover
// set — the cover table, which depends only on the regions, domain, curve
// and level — shared by every registered dataset and by ad-hoc act requests,
// plus the joiner (span resolution and partials) of each dataset queried at
// the level. Joiners live inside the entry so that capacity counts levels, an
// evicted level takes its set and every joiner over it along, and a joiner
// can never meet another level's plan.
type coverEntry struct {
	set     *join.CoverSet
	joiners sync.Map // *pointstore.Mutable → *join.PointIdxJoiner
}

// peek returns the joiner attached for src, or nil.
func (ce *coverEntry) peek(src *pointstore.Mutable) *join.PointIdxJoiner {
	if j, ok := ce.joiners.Load(src); ok {
		return j.(*join.PointIdxJoiner)
	}
	return nil
}

// joiner returns ds's joiner over the entry's set, attaching one on first
// use. It publishes first and checks the handle second, and UnregisterPoints
// marks the handle gone before it sweeps, so a request racing it is still
// answered but cannot leave the dataset attached — its store pinned — behind
// the sweep: whichever of the two runs last removes the joiner.
func (ce *coverEntry) joiner(e *Engine, ds *Dataset) *join.PointIdxJoiner {
	if j := ce.peek(ds.src); j != nil {
		return j
	}
	j, _ := ce.joiners.LoadOrStore(ds.src, ce.set.Attach(ds.src))
	if e.checkDataset(ds) != nil {
		ce.joiners.Delete(ds.src)
	}
	return j.(*join.PointIdxJoiner)
}

// coverEntryCtx returns the cover-cache entry for the bound's level, building
// its set under the cache's singleflight on a miss — for a resident pointidx
// read and an ad-hoc act read alike. Like BRJ mask builds, a cold
// rasterization fans out across the caller's worker budget, no wider;
// canceling ctx abandons the wait (and the build, once no caller is left).
// raster.BoundLevel's BoundTooFineError comes back before any build starts.
func (e *Engine) coverEntryCtx(ctx context.Context, bound float64, workers int) (*coverEntry, error) {
	level, err := raster.BoundLevel(e.domain, bound)
	if err != nil {
		return nil, err
	}
	// Closure-free warm path: a ready entry is served without materializing
	// the build closure below, so a hot resident loop allocates nothing here.
	if ce, ok := e.covers.GetReady(level); ok {
		return ce, nil
	}
	ce, err := e.covers.GetOrBuildCtx(ctx, level, func(bctx context.Context) (*coverEntry, error) {
		set, err := join.NewCoverSetCtx(bctx, e.regions, e.domain, Hilbert, level, workers)
		if err != nil {
			return nil, err
		}
		return &coverEntry{set: set}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("distbound: building cover set: %w", err)
	}
	return ce, nil
}

// exactCoverCtx returns the engine's one exact cover, building it under the
// cache's singleflight on a miss across the caller's worker budget; canceling
// ctx abandons the wait (and the build, once no caller is left).
func (e *Engine) exactCoverCtx(ctx context.Context, workers int) (*join.ExactCover, error) {
	ec, err := e.exact.GetOrBuildCtx(ctx, struct{}{}, func(bctx context.Context) (*join.ExactCover, error) {
		return join.NewExactCoverCtx(bctx, e.regions, e.domain, Hilbert, workers)
	})
	if err != nil {
		return nil, fmt.Errorf("distbound: building exact cover: %w", err)
	}
	return ec, nil
}

// CoverBytes returns the resident cover sets' footprint, each counted once;
// DatasetStats.CoverStateBytes is a dataset's own state over them.
func (e *Engine) CoverBytes() int {
	n := 0
	e.covers.EachReady(func(_ int, ce *coverEntry) { n += ce.set.MemoryBytes() })
	return n
}

// eachJoiner visits the dataset's joiner at every resident level.
func (d *Dataset) eachJoiner(fn func(*join.PointIdxJoiner)) {
	d.e.covers.EachReady(func(_ int, ce *coverEntry) {
		if j := ce.peek(d.src); j != nil {
			fn(j)
		}
	})
}

// refreshJoiners refreshes the dataset's joiners against its current
// snapshot, single-threaded: the work is bounded by the cover cache's
// capacity and must not crowd out the serving traffic it runs beside. A query
// racing it does the same refill; both publish identical state. An
// unregistered dataset has no joiners left, so a late refresh does nothing.
//
//distbound:allow-background runs on the dataset's own compaction goroutine, which no caller's context governs
func (d *Dataset) refreshJoiners() {
	d.eachJoiner(func(j *join.PointIdxJoiner) {
		j.Refresh(context.Background(), 1) //nolint:errcheck // only a canceled context fails it
	})
}
