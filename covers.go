package distbound

import (
	"context"
	"fmt"

	"distbound/internal/join"
	"distbound/internal/raster"
)

// BoundTooFineError refuses a positive Bound finer than Floor, the leaf cell's
// diagonal: no cover can meet it, so it is refused before any build starts.
type BoundTooFineError = raster.BoundTooFineError

// Cover is one resident level: the immutable cover set — the cover table,
// which depends only on the regions, domain, curve and level — shared by
// every registered dataset and by ad-hoc act requests. It sits in its
// level's slot (Engine.ready) from the end of its build on, and nothing
// clears a slot, so every read of its bound, and every dataset's joiner over
// its set (Dataset.joiners), meets this one set for the engine's lifetime.
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
// which resolves to this same level: a filled slot is never cleared. A bound
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
// ready, and otherwise by the coarsest ready cover finer than it (readyFrom);
// a build in flight serves nothing. Only when neither exists is the bound's
// own level built, under the cover Flight, whose build fills the slot before
// it completes. Like BRJ mask builds, a cold rasterization
// fans out across the caller's worker budget, no wider; canceling ctx
// abandons the wait (and the build, once no caller is left).
// raster.BoundLevel's BoundTooFineError comes back before any build starts.
func (e *Engine) coverCtx(ctx context.Context, bound float64, workers int) (*Cover, error) {
	level, err := raster.BoundLevel(e.domain, bound)
	if err != nil {
		return nil, err
	}
	if c := e.readyFrom(level); c != nil {
		return c, nil
	}
	c, err := e.covers.Do(ctx, level, func() (*Cover, bool) {
		c := e.readyFrom(level)
		return c, c != nil
	}, func(bctx context.Context) (*Cover, error) {
		set, err := join.NewCoverSetCtx(bctx, e.regions, e.domain, Hilbert, level, workers)
		if err != nil {
			return nil, err
		}
		c := &Cover{level: level, bound: e.domain.CellDiagonal(level), set: set}
		e.ready[level].Store(c)
		return c, nil
	})
	if err != nil {
		return nil, fmt.Errorf("distbound: building cover set: %w", err)
	}
	return c, nil
}

// readyFrom returns the first ready cover at level or finer — the coarsest
// that meets level's bound — in at most 31 atomic loads and no lock.
//
//distbound:noalloc
func (e *Engine) readyFrom(level int) *Cover {
	for l := level; l < len(e.ready); l++ {
		if c := e.ready[l].Load(); c != nil {
			return c
		}
	}
	return nil
}

// exactCoverCtx returns the engine's one exact cover from its slot, building
// it under its Flight on a miss across the caller's worker budget; the build
// fills the slot, which nothing clears. Canceling ctx abandons the wait (and
// the build, once no caller is left).
func (e *Engine) exactCoverCtx(ctx context.Context, workers int) (*join.ExactCover, error) {
	ec, err := e.exactBuild.Do(ctx, struct{}{}, func() (*join.ExactCover, bool) {
		ec := e.exact.Load()
		return ec, ec != nil
	}, func(bctx context.Context) (*join.ExactCover, error) {
		ec, err := join.NewExactCoverCtx(bctx, e.regions, e.domain, Hilbert, workers)
		if err != nil {
			return nil, err
		}
		e.exact.Store(ec)
		return ec, nil
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
	for i := range e.ready {
		if c := e.ready[i].Load(); c != nil {
			n += c.set.MemoryBytes()
		}
	}
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

// refreshJoiners advances the dataset's joiners read since the previous pass
// to its current snapshot (PointIdxJoiner.Refresh), single-threaded: the
// work is bounded by the levels in use and must not crowd out the serving
// traffic it runs beside. A read that finds a joiner advancing waits for
// that advance, up to its own deadline, instead of computing the state
// again. A late refresh of an unregistered dataset finds its slots cleared.
//
//distbound:allow-background runs on the dataset's own maintainer goroutine, which no caller's context governs
func (d *Dataset) refreshJoiners() {
	d.eachJoiner(func(j *join.PointIdxJoiner) {
		j.Refresh(context.Background(), 1) //nolint:errcheck // only a canceled context fails it
	})
}
