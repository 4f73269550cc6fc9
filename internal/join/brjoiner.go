package join

import (
	"context"
	"sync/atomic"

	"distbound/internal/canvas"
	"distbound/internal/geom"
	"distbound/internal/pool"
)

// BRJJoiner is the reusable form of the Bounded Raster Join: the region-mask
// canvases — the point-independent half of every pass, and the expensive one
// when region sets are large — are rendered once at construction and shared
// read-only across any number of subsequent (and concurrent) Aggregate
// calls. This turns BRJ from a pure one-shot strategy into one with an
// amortizable build, exactly like the ACT index: a serving engine caches one
// BRJJoiner per distance bound and pays only the point-canvas scatter and
// the mask·points dot products per query.
//
// It drives the same pass kernel as the one-shot BRJ (brjPass) and differs in
// what it retains: every mask, and at most one pair of point canvases, which
// a pass un-scatters rather than reallocates. That pair is all a call writes:
// it swaps the pair out of the joiner for its whole run (a concurrent call
// finds none and allocates its own) and puts it back, after a run that
// succeeded, if the slot is still empty — so no two concurrent calls share.
//
// Tiles run one after another and the workers split a tile's masks: the
// bounds the planner sends here fit one tile, where tile parallelism is one
// core. A region spanning several tiles is thereby summed in tile order, so
// counts and sums are bit-identical to BRJ.Run's at every worker count.
type BRJJoiner struct {
	bound float64
	brjPass
	tiles      [][]brjCachedMask // per tile, the pre-rendered masks of the regions that meet it
	numReg     int
	maskPixels int64
	scratch    atomic.Pointer[brjScratch] // the retained point canvases, all zero and never written while here
}

// brjCachedMask is one region's mask clipped to a tile.
type brjCachedMask struct {
	region int32
	mask   *canvas.Canvas
}

// NewBRJJoiner renders the mask canvases for every (region, tile) pair over
// the given extent, parallelized across tiles on the given number of
// workers (≤ 0 selects GOMAXPROCS) — pass the serving layer's configured
// fan-out so a cold build cannot saturate cores that concurrent queries
// are using. maxTex ≤ 0 selects canvas.DefaultMaxTextureSize.
//
//distbound:allow-background context-free convenience over NewBRJJoinerCtx; callers hold no context to thread
func NewBRJJoiner(regions []geom.Region, bounds geom.Rect, bound float64, maxTex, workers int) (*BRJJoiner, error) {
	return NewBRJJoinerCtx(context.Background(), regions, bounds, bound, maxTex, workers)
}

// NewBRJJoinerCtx is NewBRJJoiner under a context: canceling ctx abandons
// the mask rendering between regions and returns ctx.Err(), so a build
// nobody waits for anymore stops burning CPU.
func NewBRJJoinerCtx(ctx context.Context, regions []geom.Region, bounds geom.Rect, bound float64, maxTex, workers int) (*BRJJoiner, error) {
	pass, err := newBRJPass(bounds, bound, maxTex)
	if err != nil {
		return nil, err
	}
	j := &BRJJoiner{bound: bound, brjPass: pass, numReg: len(regions)}
	j.tiles = make([][]brjCachedMask, j.numTiles())
	workers = pool.Workers(workers, len(j.tiles))
	err = pool.RunCtx(ctx, len(j.tiles), workers, func(_, ti int) error {
		return j.buildTile(ctx, ti, regions)
	})
	if err != nil {
		return nil, err
	}
	for _, masks := range j.tiles {
		for _, m := range masks {
			j.maskPixels += int64(len(m.mask.Pix))
		}
	}
	return j, nil
}

// buildTile renders one tile's region masks. Tiles are disjoint, so builders
// never share a tile.
func (j *BRJJoiner) buildTile(ctx context.Context, ti int, regions []geom.Region) error {
	done := ctx.Done()
	t := j.tile(ti)
	for ri, rg := range regions {
		if canceled(done) {
			return ctx.Err()
		}
		mask, err := j.renderMask(t, rg, false)
		if err != nil {
			return err
		}
		if mask != nil {
			j.tiles[ti] = append(j.tiles[ti], brjCachedMask{region: int32(ri), mask: mask})
		}
	}
	return nil
}

// Bound returns the joiner's distance bound.
func (j *BRJJoiner) Bound() float64 { return j.bound }

// Stats reports the cached-canvas profile (NumTiles and MaskPixels cover
// the whole extent, not one run).
func (j *BRJJoiner) Stats() BRJStats { return j.stats(j.maskPixels) }

// MemoryBytes returns the footprint of the cached mask canvases — one float64
// per mask pixel — plus the point canvases retained between calls.
func (j *BRJJoiner) MemoryBytes() int {
	n := 8 * int(j.maskPixels)
	if sc := j.scratch.Load(); sc != nil {
		n += 8 * (len(sc.count) + len(sc.sum))
	}
	return n
}

// Aggregate runs the raster join against the cached masks, sequentially: the
// single-aggregate, single-worker form of AggregateMulti.
//
//distbound:allow-background context-free convenience over AggregateMulti; callers hold no context to thread
func (j *BRJJoiner) Aggregate(ps PointSet, agg Agg) (Result, error) {
	rs, err := j.AggregateMulti(context.Background(), ps, []Agg{agg}, 1)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}
