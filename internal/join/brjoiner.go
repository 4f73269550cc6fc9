package join

import (
	"context"
	"fmt"
	"sync/atomic"

	"distbound/internal/canvas"
	"distbound/internal/geom"
	"distbound/internal/pool"
)

// BRJJoiner is the reusable form of the Bounded Raster Join: the region
// masks — the point-independent half of every pass, and the expensive one
// when region sets are large — are rasterized once at construction and shared
// read-only across any number of subsequent (and concurrent) Aggregate
// calls. This turns BRJ from a pure one-shot strategy into one with an
// amortizable build, exactly like the ACT index: a serving engine caches one
// BRJJoiner per distance bound and pays per query only for its points.
//
// It shares the one-shot BRJ's pass geometry and scanline but not its dense
// canvases, which the one-shot keeps as the paper's model and this joiner's
// reference. A mask is kept as its spans — the covered runs the scanline
// emits (canvas.Grid.RegionSpans), as tile-local pixel keys — and a tile's
// points as a sorted pixel run: each occupied pixel's key, point count and
// weights added in point order, the values the point canvases would hold
// there. Each mask then sweeps the run along its spans, so a call costs the
// points plus the spans, not the pixels of every mask's bounding box; see
// AggregateMulti for why the sums stay bit-identical to BRJ.Run's.
//
// A call's point buffers are a brjScratch that the joiner retains between
// calls: it swaps the set out for its whole run (a concurrent call finds none
// and allocates its own) and puts it back, after a run that succeeded, if the
// slot is still empty — so no two concurrent calls share, and at most one set
// stays behind.
//
// Tiles run one after another and the workers split a tile's masks: the
// bounds the planner sends here fit one tile, where tile parallelism is one
// core. A region spanning several tiles is thereby summed in tile order, so
// counts and sums are bit-identical to BRJ.Run's at every worker count.
type BRJJoiner struct {
	brjPass
	tiles      [][]brjCachedMask // per tile, the masks of the regions that cover some pixel of it
	numReg     int
	maskPixels int64                      // the mask windows' pixels, as BRJ.Run counts them
	maskBytes  int                        // the masks' footprint
	scratch    atomic.Pointer[brjScratch] // the retained point buffers, never written while here
}

// brjCachedMask is one region's mask clipped to a tile: its spans in
// ascending key order.
type brjCachedMask struct {
	region int32
	spans  []brjSpan
}

// brjSpan is one covered run of a tile row, pixels lo..hi as tile-local keys
// (row·tile width + column).
type brjSpan struct{ lo, hi uint32 }

// NewBRJJoiner rasterizes the masks for every (region, tile) pair over the
// given extent, parallelized across tiles on the given number of workers
// (≤ 0 selects GOMAXPROCS) — pass the serving layer's configured fan-out so
// a cold build cannot saturate cores that concurrent queries are using.
// maxTex ≤ 0 selects canvas.DefaultMaxTextureSize, which is also the largest
// accepted: a tile's pixel keys fit in 24 bits.
//
//distbound:allow-background context-free convenience over NewBRJJoinerCtx; callers hold no context to thread
func NewBRJJoiner(regions []geom.Region, bounds geom.Rect, bound float64, maxTex, workers int) (*BRJJoiner, error) {
	return NewBRJJoinerCtx(context.Background(), regions, bounds, bound, maxTex, workers)
}

// NewBRJJoinerCtx is NewBRJJoiner under a context: canceling ctx abandons
// the mask rasterization between regions and returns ctx.Err(), so a build
// nobody waits for anymore stops burning CPU.
func NewBRJJoinerCtx(ctx context.Context, regions []geom.Region, bounds geom.Rect, bound float64, maxTex, workers int) (*BRJJoiner, error) {
	if maxTex > canvas.DefaultMaxTextureSize {
		return nil, fmt.Errorf("join: cached raster join tiles are at most %d pixels a side, not %d", canvas.DefaultMaxTextureSize, maxTex)
	}
	pass, err := newBRJPass(bounds, bound, maxTex)
	if err != nil {
		return nil, err
	}
	j := &BRJJoiner{brjPass: pass, numReg: len(regions)}
	j.tiles = make([][]brjCachedMask, j.numTiles())
	workers = pool.Workers(workers, len(j.tiles))
	windowPixels := make([]int64, len(j.tiles))
	err = pool.RunCtx(ctx, len(j.tiles), workers, func(_, ti int) (err error) {
		windowPixels[ti], err = j.buildTile(ctx, ti, regions)
		return err
	})
	if err != nil {
		return nil, err
	}
	for ti, masks := range j.tiles {
		j.maskPixels += windowPixels[ti]
		j.maskBytes += 32 * len(masks)
		for _, m := range masks {
			j.maskBytes += 8 * len(m.spans)
		}
	}
	return j, nil
}

// buildTile emits one tile's region masks as spans, over the mask window the
// one-shot join renders, all into one backing array, and returns the windows'
// pixels. Tiles are disjoint, so builders never share a tile. A region that
// covers no pixel center of the tile keeps no mask: it would fold to +0.
func (j *BRJJoiner) buildTile(ctx context.Context, ti int, regions []geom.Region) (windowPixels int64, err error) {
	done := ctx.Done()
	t := j.tile(ti)
	var spans []brjSpan
	var ends []int
	for ri, rg := range regions {
		if canceled(done) {
			return 0, ctx.Err()
		}
		x0, y0, w, h, ok := j.maskWindow(t, rg)
		if !ok {
			continue
		}
		windowPixels += int64(w * h)
		start := len(spans)
		j.grid.RegionSpans(rg, x0, y0, w, h, func(gy, lo, hi int) {
			row := (gy - t.y0) * t.w
			spans = append(spans, brjSpan{uint32(row + lo - t.x0), uint32(row + hi - t.x0)})
		})
		if len(spans) > start {
			j.tiles[ti] = append(j.tiles[ti], brjCachedMask{region: int32(ri)})
			ends = append(ends, len(spans))
		}
	}
	start := 0
	for k := range j.tiles[ti] {
		j.tiles[ti][k].spans = spans[start:ends[k]:ends[k]]
		start = ends[k]
	}
	return windowPixels, nil
}

// Stats reports the cached-mask profile over the whole extent, not one run —
// the profile BRJ.Run reports for the same extent, bound and texture cap:
// MaskPixels counts the pixels of every mask window, though the joiner keeps
// only the spans covered within them.
//
//distbound:api test seam: the raster-join tests check tiles and mask pixels through it
func (j *BRJJoiner) Stats() BRJStats { return j.stats(j.maskPixels) }

// MemoryBytes returns the footprint of the cached masks — a 32-byte record
// per (tile, region) and 8 bytes per span — plus the point buffers retained
// between calls.
//
//distbound:api test seam: the canvas-retention tests measure the retained masks through it
func (j *BRJJoiner) MemoryBytes() int {
	n := j.maskBytes
	if sc := j.scratch.Load(); sc != nil {
		n += sc.bytes()
	}
	return n
}

// pixelDigit is the digit of the pixel-key sort: two counting passes cover
// the 24 bits of a 4096² tile's keys.
const pixelDigit = 12

// brjScratch is one call's point buffers, grown to the largest tile's points
// and reused tile after tile: per tile its points keyed by pixel, a radix
// ping-pong, and the sorted pixel run — per occupied pixel its key, point
// count and (when some aggregate sums) weight sum — with its block index.
// The zero value allocates on first use.
type brjScratch struct {
	tiles      [][]uint64 // per tile, pixel key << 32 | point index
	tmp        []uint64
	pix        []uint32
	count, sum []float64
	first      []int32 // first[b]: the first run index whose key is ≥ b << shift
	shift      uint
	hist       [2][1 << pixelDigit]int32
}

// bytes is the set's footprint.
func (sc *brjScratch) bytes() int {
	n := 4*len(sc.hist)<<pixelDigit + 8*(cap(sc.tmp)+cap(sc.count)+cap(sc.sum)) + 4*(cap(sc.pix)+cap(sc.first))
	for _, t := range sc.tiles {
		n += 8 * cap(t)
	}
	return n
}

// grow returns buf resized to n, reallocated only when too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// key assigns each in-range point to its tile, in point order — the buckets
// the one-shot join scatters — keyed by its tile-local pixel (row·tile width
// + column). On an error sc is left partly written and must be dropped.
func (sc *brjScratch) key(ctx context.Context, p *brjPass, ps PointSet) error {
	done := ctx.Done()
	if len(sc.tiles) != p.numTiles() {
		sc.tiles = make([][]uint64, p.numTiles())
	}
	for ti := range sc.tiles {
		sc.tiles[ti] = sc.tiles[ti][:0]
	}
	tiled := p.numTiles() > 1
	for i, pt := range ps.Pts {
		if i%foldChunk == 0 && canceled(done) {
			return ctx.Err()
		}
		px, py := p.grid.PixelOf(pt)
		if px < p.x0 || px > p.x1 || py < p.y0 || py > p.y1 {
			continue
		}
		lx, ly, tx, ty := px-p.x0, py-p.y0, 0, 0
		if tiled {
			tx, ty = lx/p.maxTex, ly/p.maxTex
			lx, ly = lx-tx*p.maxTex, ly-ty*p.maxTex
		}
		w := min(p.maxTex, p.x1-p.x0+1-tx*p.maxTex)
		ti := ty*p.tilesX + tx
		sc.tiles[ti] = append(sc.tiles[ti], uint64(ly*w+lx)<<32|uint64(i))
	}
	return nil
}

// load turns tile t's keyed points into the sorted pixel run: the pairs
// stable-sorted by key with two LSD counting passes, and each run of one key
// folded into its pixel — the count as 0+1+1…, the weight sum as 0+w₁+w₂… in
// point order, bit for bit what the one-shot scatter accumulates in that
// pixel — and counted into its block.
func (sc *brjScratch) load(t tileGeom, ps PointSet, needSum bool, pairs []uint64) {
	n := len(pairs)
	lo, hi := &sc.hist[0], &sc.hist[1]
	clear(lo[:])
	clear(hi[:])
	for _, pr := range pairs {
		lo[pr>>32&(1<<pixelDigit-1)]++
		hi[pr>>(32+pixelDigit)]++
	}
	sc.tmp = grow(sc.tmp, n)
	radixPass(pairs, sc.tmp, lo, 32)
	radixPass(sc.tmp, pairs, hi, 32+pixelDigit)

	// The block index: 2^shift keys a block and at least as many blocks as
	// points, so a span finds its first pixel in one probe and a short scan.
	size := t.w * t.h
	sc.shift = 0
	for size>>(sc.shift+1) >= max(n, 1) {
		sc.shift++
	}
	first := grow(sc.first, (size-1)>>sc.shift+2)
	clear(first)
	pix, count := grow(sc.pix, n), grow(sc.count, n)
	var sum []float64
	if needSum {
		sum = grow(sc.sum, n)
		sc.sum = sum
	}
	m := 0
	for k := 0; k < n; m++ {
		key := uint32(pairs[k] >> 32)
		var c, s float64
		for ; k < n && uint32(pairs[k]>>32) == key; k++ {
			c++
			if needSum {
				s += ps.weight(int(uint32(pairs[k])))
			}
		}
		pix[m], count[m] = key, c
		if needSum {
			sum[m] = s
		}
		first[key>>sc.shift+1]++
	}
	var at int32
	for b, c := range first {
		at += c
		first[b] = at
	}
	sc.pix, sc.count, sc.first = pix[:m], count, first
}

// radixPass is one stable counting pass: src's pairs go to dst ordered by the
// pixelDigit-wide digit at shift, ties in src order. hist holds the digit
// counts and is consumed.
func radixPass(src, dst []uint64, hist *[1 << pixelDigit]int32, shift uint) {
	var at int32
	for d, c := range hist {
		hist[d] = at
		at += c
	}
	for _, pr := range src {
		d := pr >> shift & (1<<pixelDigit - 1)
		dst[hist[d]] = pr
		hist[d]++
	}
}

// sweep folds the occupied pixels under a mask's spans into fresh
// accumulators, in ascending key order — the mask window's row-major order.
// Each span starts from its block's first pixel, so the cost follows the
// spans and the pixels under them, not the window.
func (sc *brjScratch) sweep(spans []brjSpan, needSum bool) (c, s float64) {
	pix, i := sc.pix, 0
	for _, sp := range spans {
		i = max(i, int(sc.first[sp.lo>>sc.shift]))
		for i < len(pix) && pix[i] < sp.lo {
			i++
		}
		for ; i < len(pix) && pix[i] <= sp.hi; i++ {
			c += sc.count[i]
			if needSum {
				s += sc.sum[i]
			}
		}
	}
	return c, s
}
