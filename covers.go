package distbound

import (
	"context"
	"fmt"
	"sync"

	"distbound/internal/cache"
	"distbound/internal/join"
	"distbound/internal/pointstore"
	"distbound/internal/raster"
)

// BoundTooFineError refuses a positive Bound finer than Floor, the leaf cell's
// diagonal: no cover can meet it, so it is refused before any build starts.
type BoundTooFineError = raster.BoundTooFineError

// Cover is one resident level of the cover cache: the immutable cover set —
// the cover table, which depends only on the regions, domain, curve and
// level — shared by every registered dataset and by ad-hoc act requests,
// plus the joiner (span resolution and partials) of each dataset queried at
// the level. Joiners live inside the entry so that capacity counts levels, an
// evicted level takes its set and every joiner over it along, and a joiner
// can never meet another level's plan. Engine.Cover hands one out so that
// requests pinning it (Request.Cover) answer from one level.
type Cover struct {
	e       *Engine // the engine whose cache holds it
	level   int
	bound   float64 // the level's cell diagonal: the bound every answer read from it meets
	set     *join.CoverSet
	joiners sync.Map // *pointstore.Mutable → *join.PointIdxJoiner
}

// Level returns the cover's level (raster.BoundLevel's scale).
func (c *Cover) Level() int { return c.level }

// ServedBound returns the cover's cell diagonal: the distance bound every
// answer read from it meets, whatever coarser bound the request named.
func (c *Cover) ServedBound() float64 { return c.bound }

// peek returns the joiner attached for src, or nil.
func (c *Cover) peek(src *pointstore.Mutable) *join.PointIdxJoiner {
	if j, ok := c.joiners.Load(src); ok {
		return j.(*join.PointIdxJoiner)
	}
	return nil
}

// joiner returns ds's joiner over the cover's set, attaching one on first
// use. It publishes first and checks the handle second, and UnregisterPoints
// marks the handle gone before it sweeps, so a request racing it is still
// answered but cannot leave the dataset attached — its store pinned — behind
// the sweep: whichever of the two runs last removes the joiner.
func (c *Cover) joiner(e *Engine, ds *Dataset) *join.PointIdxJoiner {
	if j := c.peek(ds.src); j != nil {
		return j
	}
	j, _ := c.joiners.LoadOrStore(ds.src, c.set.Attach(ds.src))
	if e.checkDataset(ds) != nil {
		c.joiners.Delete(ds.src)
	}
	return j.(*join.PointIdxJoiner)
}

// Cover returns the cover a read at bound is served from — by coverCtx's
// rule, building the bound's own level on a miss with every core — for
// requests to pin (Request.Cover). The shard scatter resolves one per query
// and pins every shard's read to it, so its answers merge at one level
// whatever the cache does in between. A bound finer than the leaf cell
// returns BoundTooFineError; canceling ctx returns ctx.Err().
func (e *Engine) Cover(ctx context.Context, bound float64) (*Cover, error) {
	c, err := e.coverCtx(ctx, Request{Bound: bound})
	if err != nil {
		return nil, canceledAs(ctx, err)
	}
	return c, nil
}

// coverCtx returns the cover a normalized request reads — a resident pointidx
// read and an ad-hoc act read alike: the one it pins, or the rule's. A level
// is a floor: a cover whose boundary cells have diagonal ε′ meets every bound
// ε ≥ ε′, so the bound is served by its own level (raster.BoundLevel) if that
// cover is ready, and otherwise by the coarsest ready cover finer than it; a
// build in flight serves nothing. Only when neither exists is the bound's own
// level built, under the cache's singleflight. Like BRJ mask builds, a cold
// rasterization fans out across the request's worker budget, no wider;
// canceling ctx abandons the wait (and the build, once no caller is left).
// raster.BoundLevel's BoundTooFineError comes back before any build starts.
func (e *Engine) coverCtx(ctx context.Context, req Request) (*Cover, error) {
	if req.Cover != nil {
		return req.Cover, nil
	}
	level, err := raster.BoundLevel(e.domain, req.Bound)
	if err != nil {
		return nil, err
	}
	// Closure-free warm path: a ready cover is served without materializing
	// the build closure below, so a hot resident loop allocates nothing here.
	// Levels grow finer, so the least ready level ≥ level is the coarsest
	// that meets the bound; the levels passed over count no hit or miss.
	if _, c, ok := cache.GetAtLeast(e.covers, level); ok {
		return c, nil
	}
	workers := req.Workers
	c, err := e.covers.GetOrBuildCtx(ctx, level, func(bctx context.Context) (*Cover, error) {
		set, err := join.NewCoverSetCtx(bctx, e.regions, e.domain, Hilbert, level, workers)
		if err != nil {
			return nil, err
		}
		return &Cover{e: e, level: level, bound: e.domain.CellDiagonal(level), set: set}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("distbound: building cover set: %w", err)
	}
	return c, nil
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
	e.covers.EachReady(func(_ int, c *Cover) { n += c.set.MemoryBytes() })
	return n
}

// eachJoiner visits the dataset's joiner at every resident level.
func (d *Dataset) eachJoiner(fn func(*join.PointIdxJoiner)) {
	d.e.covers.EachReady(func(_ int, c *Cover) {
		if j := c.peek(d.src); j != nil {
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
