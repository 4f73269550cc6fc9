package canvas

import (
	"math"
	"sort"

	"distbound/internal/geom"
)

// This file is the software rasterizer: the two ways §4 names for producing
// a rasterized canvas are rendering data directly ("on the GPU") and reading
// it out of an index; this is the former.

// RenderRegion fills the region into the canvas with the given value using
// the GPU sampling rule: a pixel is covered exactly when its center is
// inside the region (centroid sampling). This makes the canvas a
// non-conservative distance-bounded approximation with bound = pixel
// diagonal. Already-set pixels are overwritten (BlendOver semantics). The
// covered pixels are exactly the runs RegionSpans emits for the window.
func (c *Canvas) RenderRegion(rg geom.Region, value float64) {
	c.G.RegionSpans(rg, c.X0, c.Y0, c.W, c.H, func(gy, lo, hi int) {
		i := c.idx(lo, gy)
		row := c.Pix[i : i+hi-lo+1]
		for k := range row {
			row[k] = value
		}
	})
}

// RegionSpans is the scanline of RenderRegion without a canvas: over the
// window [x0, x0+w) × [y0, y0+h) of the grid it calls emit(gy, lo, hi) once
// per run of pixels lo..hi in row gy whose centers the region covers — rows
// ascending, and within a row the runs ascending in x and disjoint. Polygons
// yield their runs from the crossings of each pixel-center row with their
// rings (even-odd); any other region from runs of a per-pixel-center
// ContainsPoint test.
func (g Grid) RegionSpans(rg geom.Region, x0, y0, w, h int, emit func(gy, lo, hi int)) {
	win := Canvas{G: g, X0: x0, Y0: y0, W: w, H: h}
	bb := rg.Bounds().Intersection(win.Bounds())
	if bb.IsEmpty() {
		return
	}
	gx0, gy0 := g.PixelOf(bb.Min)
	gx1, gy1 := g.PixelOf(bb.Max)
	gx0, gy0 = max(gx0, x0), max(gy0, y0)
	gx1, gy1 = min(gx1, x0+w-1), min(gy1, y0+h-1)

	polys := geom.Polygons(rg)
	if polys == nil {
		// Generic fallback: test every pixel center, emitting maximal runs.
		for gy := gy0; gy <= gy1; gy++ {
			lo := -1
			for gx := gx0; gx <= gx1; gx++ {
				in := rg.ContainsPoint(g.PixelCenter(gx, gy))
				if in && lo < 0 {
					lo = gx
				} else if !in && lo >= 0 {
					emit(gy, lo, gx-1)
					lo = -1
				}
			}
			if lo >= 0 {
				emit(gy, lo, gx1)
			}
		}
		return
	}

	// Scanline: crossings of each pixel-center row with all rings.
	var rings []geom.Ring
	for _, p := range polys {
		rings = append(rings, p.Rings()...)
	}
	var xs []float64
	for gy := gy0; gy <= gy1; gy++ {
		cy := g.Origin.Y + (float64(gy)+0.5)*g.PixelSize
		xs = xs[:0]
		for _, ring := range rings {
			for i := range ring {
				e := ring.Edge(i)
				if (e.A.Y <= cy) == (e.B.Y <= cy) {
					continue
				}
				xs = append(xs, e.A.X+(cy-e.A.Y)*(e.B.X-e.A.X)/(e.B.Y-e.A.Y))
			}
		}
		if len(xs) < 2 {
			continue
		}
		sort.Float64s(xs)
		for k := 0; k+1 < len(xs); k += 2 {
			lo := int(math.Ceil((xs[k]-g.Origin.X)/g.PixelSize - 0.5))
			hi := int(math.Ceil((xs[k+1]-g.Origin.X)/g.PixelSize-0.5)) - 1
			lo, hi = max(lo, gx0), min(hi, gx1)
			if lo <= hi {
				emit(gy, lo, hi)
			}
		}
	}
}
