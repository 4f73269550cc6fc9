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
// join runs one pass per tile, which is what bends the cost curve upward at
// small bounds in Figure 7. Tiles own disjoint pixels, so passes can also
// run concurrently (BRJJoiner.AggregateMulti).
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

// tileGeom fixes one pass window of a tiled raster join. It is shared by
// the one-shot BRJ and the cached BRJJoiner so their pass geometry — the
// agreement the "counts identical" guarantee rests on — cannot diverge.
type tileGeom struct {
	x0, y0, w, h int
	rect         geom.Rect
}

// tileGeomAt computes tile (tx, ty)'s window within the pixel range
// [x0, x1] × [y0, y1] under the given texture cap.
func tileGeomAt(grid canvas.Grid, x0, y0, x1, y1, maxTex, tx, ty int) tileGeom {
	t := tileGeom{x0: x0 + tx*maxTex, y0: y0 + ty*maxTex}
	t.w = minI(maxTex, x1-t.x0+1)
	t.h = minI(maxTex, y1-t.y0+1)
	t.rect = geom.Rect{
		Min: grid.PixelRect(t.x0, t.y0).Min,
		Max: grid.PixelRect(t.x0+t.w-1, t.y0+t.h-1).Max,
	}
	return t
}

// maskWindow clips a region's bounds to the tile, in pixels; ok is false
// when the region misses the tile.
func (t tileGeom) maskWindow(grid canvas.Grid, rb geom.Rect) (mx0, my0, mx1, my1 int, ok bool) {
	window := rb.Intersection(t.rect)
	if window.IsEmpty() {
		return 0, 0, 0, 0, false
	}
	mx0, my0 = grid.PixelOf(window.Min)
	mx1, my1 = grid.PixelOf(window.Max)
	mx0, my0 = maxI(mx0, t.x0), maxI(my0, t.y0)
	mx1, my1 = minI(mx1, t.x0+t.w-1), minI(my1, t.y0+t.h-1)
	if mx0 > mx1 || my0 > my1 {
		return 0, 0, 0, 0, false
	}
	return mx0, my0, mx1, my1, true
}

// bucketByTile assigns each in-range point index to its tile — the other
// half (besides tileGeom) of the pass geometry both BRJ forms must agree
// on for their counts to stay identical.
func bucketByTile(ps PointSet, grid canvas.Grid, x0, y0, x1, y1, maxTex, tilesX, numTiles int) [][]int32 {
	buckets := make([][]int32, numTiles)
	for i, pt := range ps.Pts {
		px, py := grid.PixelOf(pt)
		if px < x0 || px > x1 || py < y0 || py > y1 {
			continue
		}
		ti := ((py-y0)/maxTex)*tilesX + (px-x0)/maxTex
		buckets[ti] = append(buckets[ti], int32(i))
	}
	return buckets
}

// brjPlan is the precomputed pass schedule of one run.
type brjPlan struct {
	grid         canvas.Grid
	x0, y0       int
	x1, y1       int
	maxTex       int
	tilesX       int
	tilesY       int
	buckets      [][]int32
	regionBounds []geom.Rect
}

// plan buckets points into tiles and fixes the pixel windows.
func (b BRJ) plan(ps PointSet, regions []geom.Region) (*brjPlan, BRJStats, error) {
	if !(b.Bound > 0) {
		return nil, BRJStats{}, fmt.Errorf("join: BRJ needs a positive distance bound")
	}
	maxTex := b.MaxTextureSize
	if maxTex <= 0 {
		maxTex = canvas.DefaultMaxTextureSize
	}
	grid := canvas.GridForBound(b.Bounds.Min, b.Bound)
	x0, y0 := grid.PixelOf(b.Bounds.Min)
	x1, y1 := grid.PixelOf(b.Bounds.Max)
	stats := BRJStats{
		PixelSize:  grid.PixelSize,
		GridWidth:  x1 - x0 + 1,
		GridHeight: y1 - y0 + 1,
	}
	p := &brjPlan{grid: grid, x0: x0, y0: y0, x1: x1, y1: y1, maxTex: maxTex}
	p.tilesX = (stats.GridWidth + maxTex - 1) / maxTex
	p.tilesY = (stats.GridHeight + maxTex - 1) / maxTex
	stats.NumTiles = p.tilesX * p.tilesY

	p.buckets = bucketByTile(ps, grid, x0, y0, x1, y1, maxTex, p.tilesX, stats.NumTiles)
	p.regionBounds = make([]geom.Rect, len(regions))
	for ri, rg := range regions {
		p.regionBounds[ri] = rg.Bounds()
	}
	return p, stats, nil
}

// runTile executes one pass: render the tile's point canvases, then blend
// with every overlapping region mask and accumulate into counts/sums. When
// boundaryCounts is non-nil it additionally accumulates, per region, the
// point count falling into pixels crossed by the region boundary — the ε_b
// of §6's result-range estimation. Returns the mask pixels written.
func (p *brjPlan) runTile(ps PointSet, regions []geom.Region, agg Agg, tx, ty int, counts, sums, boundaryCounts []float64) (int64, error) {
	t := tileGeomAt(p.grid, p.x0, p.y0, p.x1, p.y1, p.maxTex, tx, ty)

	// Point canvases for this pass: counts and, for SUM/AVG, weights (two
	// color channels of the paper's off-screen buffer).
	ptCount, err := canvas.NewCanvas(p.grid, t.x0, t.y0, t.w, t.h)
	if err != nil {
		return 0, err
	}
	var ptSum *canvas.Canvas
	if agg != Count {
		ptSum, err = canvas.NewCanvas(p.grid, t.x0, t.y0, t.w, t.h)
		if err != nil {
			return 0, err
		}
	}
	for _, pi := range p.buckets[ty*p.tilesX+tx] {
		gx, gy := p.grid.PixelOf(ps.Pts[pi])
		ptCount.Add(gx, gy, 1)
		if ptSum != nil {
			ptSum.Add(gx, gy, ps.weight(int(pi)))
		}
	}

	var maskPixels int64
	for ri, rg := range regions {
		mx0, my0, mx1, my1, ok := t.maskWindow(p.grid, p.regionBounds[ri])
		if !ok {
			continue
		}
		mask, err := canvas.NewCanvas(p.grid, mx0, my0, mx1-mx0+1, my1-my0+1)
		if err != nil {
			return maskPixels, err
		}
		mask.RenderRegion(rg, 1)
		maskPixels += int64(len(mask.Pix))
		if boundaryCounts != nil {
			bMask, err := canvas.NewCanvas(p.grid, mx0, my0, mx1-mx0+1, my1-my0+1)
			if err != nil {
				return maskPixels, err
			}
			bMask.RenderRegionBoundary(rg, 1)
			if err := canvas.Blend(bMask, ptCount, canvas.BlendMul); err != nil {
				return maskPixels, err
			}
			boundaryCounts[ri] += bMask.Sum()
		}
		if agg != Count {
			sumMask := mask.Clone()
			if err := canvas.Blend(sumMask, ptSum, canvas.BlendMul); err != nil {
				return maskPixels, err
			}
			sums[ri] += sumMask.Sum()
		}
		if err := canvas.Blend(mask, ptCount, canvas.BlendMul); err != nil {
			return maskPixels, err
		}
		counts[ri] += mask.Sum()
	}
	return maskPixels, nil
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
	plan, stats, err := b.plan(ps, regions)
	if err != nil {
		return Result{}, nil, stats, err
	}

	counts := make([]float64, len(regions))
	sums := make([]float64, len(regions))
	var boundaryCounts []float64
	if withRange {
		boundaryCounts = make([]float64, len(regions))
	}
	for ty := 0; ty < plan.tilesY; ty++ {
		for tx := 0; tx < plan.tilesX; tx++ {
			mp, err := plan.runTile(ps, regions, agg, tx, ty, counts, sums, boundaryCounts)
			stats.MaskPixels += mp
			if err != nil {
				return Result{}, nil, stats, err
			}
		}
	}

	res := newResult(agg, len(regions))
	var ivs []Interval
	if withRange {
		ivs = make([]Interval, len(regions))
	}
	for ri := range regions {
		res.Counts[ri] = int64(math.Round(counts[ri]))
		if res.Sums != nil {
			res.Sums[ri] = sums[ri]
		}
		if withRange {
			ivs[ri] = Interval{Lo: counts[ri] - boundaryCounts[ri], Hi: counts[ri] + boundaryCounts[ri]}
		}
	}
	return res, ivs, stats, nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
