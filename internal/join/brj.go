package join

import (
	"fmt"
	"math"

	"distbound/internal/canvas"
	"distbound/internal/geom"
)

// BRJ is the Bounded Raster Join of §5.2 (Tzirita Zacharatou et al.,
// PVLDB'17) expressed in the canvas algebra of §4: points and polygons are
// rendered onto rasterized canvases whose pixel diagonal equals the distance
// bound; blending the point canvas (which holds per-pixel partial
// aggregates) with each polygon's mask canvas and summing yields the
// per-region aggregate. No PIP test and no pre-computation is needed.
//
// When the required canvas resolution exceeds MaxTextureSize — exactly the
// situation the paper hits at a 1 m bound — the canvas is subdivided and the
// join runs one pass per tile, one tile after another, which is what bends
// the cost curve upward at small bounds in Figure 7.
//
// BRJ is the one-shot driver over the pass kernel below (brjPass): per tile
// it scatters the tile's points onto fresh canvases, then renders each
// region's mask, folds it in and drops it, so a single mask is resident at
// any moment. It is the paper's dense canvas model, and the reference the
// cached BRJJoiner is held to: that joiner shares the pass geometry and the
// one scanline (canvas.Grid.RegionSpans) RenderRegion fills from, keeps each
// mask as its covered runs, and folds only the pixels points landed in —
// bit for bit the sums this driver computes.
type BRJ struct {
	// Bound is the distance bound (pixel diagonal = Bound).
	Bound float64
	// Bounds is the spatial extent of the join.
	Bounds geom.Rect
	// MaxTextureSize caps the per-pass canvas dimension; ≤ 0 selects
	// canvas.DefaultMaxTextureSize.
	MaxTextureSize int
}

// BRJStats reports the execution profile of one BRJ run.
type BRJStats struct {
	PixelSize  float64
	GridWidth  int // total pixels across the extent
	GridHeight int
	NumTiles   int
	MaskPixels int64 // pixels written across all region masks
}

// brjPass is the pass geometry of a tiled raster join — the pixel grid, the
// extent's pixel range and the texture cap that cuts it into tiles — and,
// through its methods, the one-shot kernel per tile: scatter the tile's
// points, renderMask a region in the tile's window, foldMask it — one read of
// the mask for the count and the sum — into the running sums. The one-shot
// BRJ and the cached BRJJoiner hold a brjPass each, so their tiles, buckets
// and mask windows agree by construction.
type brjPass struct {
	grid           canvas.Grid
	x0, y0, x1, y1 int
	maxTex         int
	tilesX, tilesY int
}

// newBRJPass fixes the geometry for a bound over an extent; maxTex ≤ 0
// selects canvas.DefaultMaxTextureSize.
func newBRJPass(bounds geom.Rect, bound float64, maxTex int) (brjPass, error) {
	if !(bound > 0) {
		return brjPass{}, fmt.Errorf("join: BRJ needs a positive distance bound")
	}
	if maxTex <= 0 {
		maxTex = canvas.DefaultMaxTextureSize
	}
	p := brjPass{grid: canvas.GridForBound(bounds.Min, bound), maxTex: maxTex}
	p.x0, p.y0 = p.grid.PixelOf(bounds.Min)
	p.x1, p.y1 = p.grid.PixelOf(bounds.Max)
	p.tilesX = (p.x1 - p.x0 + maxTex) / maxTex
	p.tilesY = (p.y1 - p.y0 + maxTex) / maxTex
	return p, nil
}

func (p brjPass) numTiles() int { return p.tilesX * p.tilesY }

// stats reports the geometry with the given mask-pixel total.
func (p brjPass) stats(maskPixels int64) BRJStats {
	return BRJStats{
		PixelSize:  p.grid.PixelSize,
		GridWidth:  p.x1 - p.x0 + 1,
		GridHeight: p.y1 - p.y0 + 1,
		NumTiles:   p.numTiles(),
		MaskPixels: maskPixels,
	}
}

// tileGeom is one pass window: a tile's pixel range and its rectangle.
type tileGeom struct {
	x0, y0, w, h int
	rect         geom.Rect
}

// tile computes tile ti's window (row-major over tilesX × tilesY).
func (p brjPass) tile(ti int) tileGeom {
	t := tileGeom{x0: p.x0 + ti%p.tilesX*p.maxTex, y0: p.y0 + ti/p.tilesX*p.maxTex}
	t.w = min(p.maxTex, p.x1-t.x0+1)
	t.h = min(p.maxTex, p.y1-t.y0+1)
	t.rect = geom.Rect{
		Min: p.grid.PixelRect(t.x0, t.y0).Min,
		Max: p.grid.PixelRect(t.x0+t.w-1, t.y0+t.h-1).Max,
	}
	return t
}

// bucketByTile assigns each in-range point index to its tile.
func (p brjPass) bucketByTile(ps PointSet) [][]int32 {
	buckets := make([][]int32, p.numTiles())
	for i, pt := range ps.Pts {
		px, py := p.grid.PixelOf(pt)
		if px < p.x0 || px > p.x1 || py < p.y0 || py > p.y1 {
			continue
		}
		ti := ((py-p.y0)/p.maxTex)*p.tilesX + (px-p.x0)/p.maxTex
		buckets[ti] = append(buckets[ti], int32(i))
	}
	return buckets
}

// scatter renders one tile's point canvases: counts always and, when some
// aggregate sums, weights (two color channels of the paper's off-screen
// buffer).
func (p brjPass) scatter(t tileGeom, ps PointSet, needSum bool, bucket []int32) (ptCount, ptSum *canvas.Canvas, err error) {
	if ptCount, err = canvas.NewCanvas(p.grid, t.x0, t.y0, t.w, t.h); err != nil {
		return nil, nil, err
	}
	if needSum {
		if ptSum, err = canvas.NewCanvas(p.grid, t.x0, t.y0, t.w, t.h); err != nil {
			return nil, nil, err
		}
	}
	for _, pi := range bucket {
		gx, gy := p.grid.PixelOf(ps.Pts[pi])
		ptCount.Add(gx, gy, 1)
		if ptSum != nil {
			ptSum.Add(gx, gy, ps.weight(int(pi)))
		}
	}
	return ptCount, ptSum, nil
}

// maskWindow is a region's mask window in a tile: the pixels of its bounds
// clipped to the tile, as origin and size. ok is false when the region
// misses the tile.
func (p brjPass) maskWindow(t tileGeom, rg geom.Region) (x0, y0, w, h int, ok bool) {
	window := rg.Bounds().Intersection(t.rect)
	if window.IsEmpty() {
		return 0, 0, 0, 0, false
	}
	mx0, my0 := p.grid.PixelOf(window.Min)
	mx1, my1 := p.grid.PixelOf(window.Max)
	mx0, my0 = max(mx0, t.x0), max(my0, t.y0)
	mx1, my1 = min(mx1, t.x0+t.w-1), min(my1, t.y0+t.h-1)
	return mx0, my0, mx1 - mx0 + 1, my1 - my0 + 1, mx0 <= mx1 && my0 <= my1
}

// renderMask renders a region onto a fresh canvas over its mask window — the
// region itself, or with boundary set the pixels its boundary crosses. It
// returns nil when the region misses the tile.
func (p brjPass) renderMask(t tileGeom, rg geom.Region, boundary bool) (*canvas.Canvas, error) {
	mx0, my0, w, h, ok := p.maskWindow(t, rg)
	if !ok {
		return nil, nil
	}
	mask, err := canvas.NewCanvas(p.grid, mx0, my0, w, h)
	if err != nil {
		return nil, err
	}
	if boundary {
		mask.RenderRegionBoundary(rg, 1)
	} else {
		mask.RenderRegion(rg, 1)
	}
	return mask, nil
}

// foldMask adds mask·points to region ri's running count and, when the
// weight canvas is present, sum: the blend-and-sum of Figure 5 as one
// read-only pass over the mask feeding both channels, so the mask may be
// dropped or kept.
func foldMask(mask, ptCount, ptSum *canvas.Canvas, ri int, counts, sums []float64) error {
	c, s, err := canvas.DotSums(mask, ptCount, ptSum)
	if err != nil {
		return err
	}
	counts[ri] += c
	if ptSum != nil {
		sums[ri] += s
	}
	return nil
}

// brjResult rounds the accumulated pixel sums into a Result.
func brjResult(agg Agg, counts, sums []float64) Result {
	r := newResult(agg, len(counts))
	for ri := range counts {
		r.Counts[ri] = int64(math.Round(counts[ri]))
		if r.Sums != nil {
			r.Sums[ri] = sums[ri]
		}
	}
	return r
}

// Run executes the raster join sequentially, one pass per tile.
func (b BRJ) Run(ps PointSet, regions []geom.Region, agg Agg) (Result, BRJStats, error) {
	res, _, stats, err := b.run(ps, regions, agg, false)
	return res, stats, err
}

// RunWithRange is Run extended with §6 result-range estimation on the
// canvas: errors can only involve points in pixels crossed by a region
// boundary, so with per-region boundary partial counts ε_b the exact COUNT
// is guaranteed to lie in [α − ε_b, α + ε_b] (both directions, because the
// centroid sampling of the rasterizer admits false positives and false
// negatives).
func (b BRJ) RunWithRange(ps PointSet, regions []geom.Region) (Result, []Interval, BRJStats, error) {
	return b.run(ps, regions, Count, true)
}

func (b BRJ) run(ps PointSet, regions []geom.Region, agg Agg, withRange bool) (Result, []Interval, BRJStats, error) {
	if err := ps.validate(agg); err != nil {
		return Result{}, nil, BRJStats{}, err
	}
	if agg == Min || agg == Max {
		// The additive-blend point canvas carries counts and sums; MIN/MAX
		// need min/max-blended channels with an empty-pixel sentinel, which
		// the index-based joins provide directly.
		return Result{}, nil, BRJStats{}, fmt.Errorf("join: BRJ supports COUNT/SUM/AVG, not %v", agg)
	}
	pass, err := newBRJPass(b.Bounds, b.Bound, b.MaxTextureSize)
	if err != nil {
		return Result{}, nil, BRJStats{}, err
	}
	counts := make([]float64, len(regions))
	sums := make([]float64, len(regions))
	var boundaryCounts []float64
	if withRange {
		boundaryCounts = make([]float64, len(regions))
	}
	var maskPixels int64
	for ti, bucket := range pass.bucketByTile(ps) {
		mp, err := pass.renderAndFold(pass.tile(ti), ps, regions, agg != Count, bucket, counts, sums, boundaryCounts)
		if err != nil {
			return Result{}, nil, BRJStats{}, err
		}
		maskPixels += mp
	}

	var ivs []Interval
	if withRange {
		ivs = make([]Interval, len(regions))
		for ri := range ivs {
			ivs[ri] = Interval{Lo: counts[ri] - boundaryCounts[ri], Hi: counts[ri] + boundaryCounts[ri]}
		}
	}
	return brjResult(agg, counts, sums), ivs, pass.stats(maskPixels), nil
}

// renderAndFold is one pass of the one-shot driver: scatter the tile's
// points, then render, fold and drop one region mask after another. When
// boundaryCounts is non-nil it accumulates, per region, the points in pixels
// the region's boundary crosses — the ε_b of §6's result-range estimation —
// from a boundary mask folded the same way. It returns the mask pixels
// rendered (boundary masks not counted).
func (p brjPass) renderAndFold(t tileGeom, ps PointSet, regions []geom.Region, needSum bool, bucket []int32, counts, sums, boundaryCounts []float64) (maskPixels int64, err error) {
	ptCount, ptSum, err := p.scatter(t, ps, needSum, bucket)
	if err != nil {
		return 0, err
	}
	for ri, rg := range regions {
		mask, err := p.renderMask(t, rg, false)
		if err != nil {
			return 0, err
		}
		if mask == nil {
			continue
		}
		maskPixels += int64(len(mask.Pix))
		if err := foldMask(mask, ptCount, ptSum, ri, counts, sums); err != nil {
			return 0, err
		}
		if boundaryCounts != nil {
			if mask, err = p.renderMask(t, rg, true); err != nil {
				return 0, err
			}
			if err := foldMask(mask, ptCount, nil, ri, boundaryCounts, nil); err != nil {
				return 0, err
			}
		}
	}
	return maskPixels, nil
}
