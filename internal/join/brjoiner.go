package join

import (
	"context"
	"fmt"

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
// Counts are identical to BRJ.Run on the same inputs; the mask values and
// iteration order are preserved, only the blend is evaluated without
// mutating the cached mask (canvas.DotSum).
type BRJJoiner struct {
	bound          float64
	grid           canvas.Grid
	x0, y0, x1, y1 int
	maxTex         int
	tilesX, tilesY int
	tiles          []brjCachedTile
	numReg         int
	maskPixels     int64
}

// brjCachedTile is one pass window with its pre-rendered region masks.
type brjCachedTile struct {
	geom       tileGeom
	masks      []brjCachedMask
	maskPixels int64
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
	if !(bound > 0) {
		return nil, fmt.Errorf("join: BRJ needs a positive distance bound")
	}
	if maxTex <= 0 {
		maxTex = canvas.DefaultMaxTextureSize
	}
	grid := canvas.GridForBound(bounds.Min, bound)
	x0, y0 := grid.PixelOf(bounds.Min)
	x1, y1 := grid.PixelOf(bounds.Max)
	j := &BRJJoiner{
		bound:  bound,
		grid:   grid,
		x0:     x0,
		y0:     y0,
		x1:     x1,
		y1:     y1,
		maxTex: maxTex,
		numReg: len(regions),
	}
	gw, gh := x1-x0+1, y1-y0+1
	j.tilesX = (gw + maxTex - 1) / maxTex
	j.tilesY = (gh + maxTex - 1) / maxTex
	j.tiles = make([]brjCachedTile, j.tilesX*j.tilesY)

	regionBounds := make([]geom.Rect, len(regions))
	for ri, rg := range regions {
		regionBounds[ri] = rg.Bounds()
	}

	workers = pool.Workers(workers, len(j.tiles))
	err := pool.RunCtx(ctx, len(j.tiles), workers, func(_, ti int) error {
		return j.buildTile(ctx, ti, regions, regionBounds)
	})
	if err != nil {
		return nil, err
	}
	for ti := range j.tiles {
		j.maskPixels += j.tiles[ti].maskPixels
	}
	return j, nil
}

// buildTile fixes one tile's window and renders its region masks. Tiles are
// disjoint, so builders never share a tile.
func (j *BRJJoiner) buildTile(ctx context.Context, ti int, regions []geom.Region, regionBounds []geom.Rect) error {
	done := ctx.Done()
	tx, ty := ti%j.tilesX, ti/j.tilesX
	t := &j.tiles[ti]
	t.geom = tileGeomAt(j.grid, j.x0, j.y0, j.x1, j.y1, j.maxTex, tx, ty)
	for ri := range regions {
		if canceled(done) {
			return ctx.Err()
		}
		mx0, my0, mx1, my1, ok := t.geom.maskWindow(j.grid, regionBounds[ri])
		if !ok {
			continue
		}
		mask, err := canvas.NewCanvas(j.grid, mx0, my0, mx1-mx0+1, my1-my0+1)
		if err != nil {
			return err
		}
		mask.RenderRegion(regions[ri], 1)
		t.maskPixels += int64(len(mask.Pix))
		t.masks = append(t.masks, brjCachedMask{region: int32(ri), mask: mask})
	}
	return nil
}

// Bound returns the joiner's distance bound.
func (j *BRJJoiner) Bound() float64 { return j.bound }

// Stats reports the cached-canvas profile (NumTiles and MaskPixels cover
// the whole extent, not one run).
func (j *BRJJoiner) Stats() BRJStats {
	return BRJStats{
		PixelSize:  j.grid.PixelSize,
		GridWidth:  j.x1 - j.x0 + 1,
		GridHeight: j.y1 - j.y0 + 1,
		NumTiles:   len(j.tiles),
		MaskPixels: j.maskPixels,
	}
}

// MemoryBytes returns the footprint of the cached mask canvases.
func (j *BRJJoiner) MemoryBytes() int {
	n := 0
	for ti := range j.tiles {
		for _, m := range j.tiles[ti].masks {
			n += m.mask.MemoryBytes()
		}
	}
	return n
}

// Aggregate runs the raster join against the cached masks, sequentially: the
// single-aggregate, single-worker form of AggregateMulti. The receiver is
// never written, so concurrent calls are safe.
//
//distbound:allow-background context-free convenience over AggregateMulti; callers hold no context to thread
func (j *BRJJoiner) Aggregate(ps PointSet, agg Agg) (Result, error) {
	rs, err := j.AggregateMulti(context.Background(), ps, []Agg{agg}, 1)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// runTile scatters one tile's points onto fresh point canvases (a count
// canvas always, a weight canvas when some aggregate sums) and folds the
// cached masks in via read-only dot products.
func (j *BRJJoiner) runTile(ctx context.Context, ps PointSet, needSum bool, ti int, bucket []int32, counts, sums []float64) error {
	done := ctx.Done()
	t := &j.tiles[ti]
	ptCount, err := canvas.NewCanvas(j.grid, t.geom.x0, t.geom.y0, t.geom.w, t.geom.h)
	if err != nil {
		return err
	}
	var ptSum *canvas.Canvas
	if needSum {
		ptSum, err = canvas.NewCanvas(j.grid, t.geom.x0, t.geom.y0, t.geom.w, t.geom.h)
		if err != nil {
			return err
		}
	}
	for bi, pi := range bucket {
		if bi&cancelCheckMask == 0 && canceled(done) {
			return ctx.Err()
		}
		gx, gy := j.grid.PixelOf(ps.Pts[pi])
		ptCount.Add(gx, gy, 1)
		if ptSum != nil {
			ptSum.Add(gx, gy, ps.weight(int(pi)))
		}
	}
	for _, m := range t.masks {
		if canceled(done) {
			return ctx.Err()
		}
		if ptSum != nil {
			s, err := canvas.DotSum(m.mask, ptSum)
			if err != nil {
				return err
			}
			sums[m.region] += s
		}
		c, err := canvas.DotSum(m.mask, ptCount)
		if err != nil {
			return err
		}
		counts[m.region] += c
	}
	return nil
}
