package distbound

import (
	"context"
	"fmt"

	"distbound/internal/cache"
	"distbound/internal/join"
	"distbound/internal/raster"
)

// BoundTooFineError refuses a positive Bound finer than Floor, the leaf cell's
// diagonal: no cover can meet it, so it is refused before any build starts.
type BoundTooFineError = raster.BoundTooFineError

// Cover is one resident level of the cover cache: the immutable cover set —
// the cover table, which depends only on the regions, domain, curve and
// level — shared by every registered dataset and by ad-hoc act requests. The
// cache holds one entry per level and evicts none, so a level once built
// stays: every read of its bound, and every dataset's joiner over its set
// (Dataset.joiners), meets this one set for the engine's lifetime.
type Cover struct {
	level int
	bound float64 // the level's cell diagonal: the bound every answer read from it meets
	set   *join.CoverSet
}

// Level returns the cover's level (raster.BoundLevel's scale).
func (c *Cover) Level() int { return c.level }

// ServedBound returns the cover's cell diagonal: the distance bound every
// answer read from it meets, whatever coarser bound the request named.
func (c *Cover) ServedBound() float64 { return c.bound }

// joiner returns the dataset's joiner over c's set, attaching one on first
// use. Levels are never evicted, so the joiner in c's slot is always over c's
// set. A request racing UnregisterPoints may attach one after the sweep, or
// see the sweep clear the slot it just filled; either way it answers from
// the joiner it attached, which only the released handle holds.
func (d *Dataset) joiner(c *Cover) *join.PointIdxJoiner {
	slot := &d.joiners[c.level]
	if j := slot.Load(); j != nil {
		return j
	}
	j := c.set.Attach(d.src)
	if !slot.CompareAndSwap(nil, j) {
		if cur := slot.Load(); cur != nil {
			return cur
		}
	}
	return j
}

// Cover returns the cover a read at bound is served from — by coverCtx's
// rule, building the bound's own level on a miss with every core. The shard
// scatter resolves one per query and asks every shard at its ServedBound,
// which resolves to this same level: a ready level is never evicted. A bound
// finer than the leaf cell returns BoundTooFineError; canceling ctx returns
// ctx.Err().
func (e *Engine) Cover(ctx context.Context, bound float64) (*Cover, error) {
	c, err := e.coverCtx(ctx, bound, 0)
	if err != nil {
		return nil, canceledAs(ctx, err)
	}
	return c, nil
}

// coverCtx returns the cover a read at bound is served from — a resident
// pointidx read and an ad-hoc act read alike. A level is a floor: a cover
// whose boundary cells have diagonal ε′ meets every bound ε ≥ ε′, so the
// bound is served by its own level (raster.BoundLevel) if that cover is
// ready, and otherwise by the coarsest ready cover finer than it; a build in
// flight serves nothing. Only when neither exists is the bound's own
// level built, under the cache's singleflight. Like BRJ mask builds, a cold
// rasterization fans out across the caller's worker budget, no wider;
// canceling ctx abandons the wait (and the build, once no caller is left).
// raster.BoundLevel's BoundTooFineError comes back before any build starts.
func (e *Engine) coverCtx(ctx context.Context, bound float64, workers int) (*Cover, error) {
	level, err := raster.BoundLevel(e.domain, bound)
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
	c, err := e.covers.GetOrBuildCtx(ctx, level, func(bctx context.Context) (*Cover, error) {
		set, err := join.NewCoverSetCtx(bctx, e.regions, e.domain, Hilbert, level, workers)
		if err != nil {
			return nil, err
		}
		return &Cover{level: level, bound: e.domain.CellDiagonal(level), set: set}, nil
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

// eachJoiner visits the dataset's joiner at every level it has read.
func (d *Dataset) eachJoiner(fn func(*join.PointIdxJoiner)) {
	for i := range d.joiners {
		if j := d.joiners[i].Load(); j != nil {
			fn(j)
		}
	}
}

// refreshJoiners refreshes the dataset's joiners against its current
// snapshot, single-threaded: the work is bounded by the levels the dataset
// has read and must not crowd out the serving traffic it runs beside. A query
// racing it does the same refill; both publish identical state. A late
// refresh of an unregistered dataset finds its slots cleared.
//
//distbound:allow-background runs on the dataset's own compaction goroutine, which no caller's context governs
func (d *Dataset) refreshJoiners() {
	d.eachJoiner(func(j *join.PointIdxJoiner) {
		j.Refresh(context.Background(), 1) //nolint:errcheck // only a canceled context fails it
	})
}
