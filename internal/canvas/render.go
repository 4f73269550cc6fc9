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

// RenderRegionBoundary marks every pixel the region boundary passes through
// with value. Combined with RenderRegion it yields the boundary-pixel set
// result-range estimation needs (§6: errors happen only at boundary cells).
//
//distbound:api §4's boundary rendering; no plan composes it yet
func (c *Canvas) RenderRegionBoundary(rg geom.Region, value float64) {
	for _, p := range geom.Polygons(rg) {
		for _, ring := range p.Rings() {
			for i := range ring {
				c.renderSegment(ring.Edge(i), value)
			}
		}
	}
}

// renderSegment marks the pixels along a segment by midpoint grid traversal:
// the segment is split at every grid-line crossing and each piece's midpoint
// located.
func (c *Canvas) renderSegment(e geom.Segment, value float64) {
	ps := c.G.PixelSize
	ts := []float64{0, 1}
	collect := func(a, b, origin float64) {
		if a == b {
			return
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		kLo := int64(math.Ceil((lo - origin) / ps))
		kHi := int64(math.Floor((hi - origin) / ps))
		for k := kLo; k <= kHi; k++ {
			t := (origin + float64(k)*ps - a) / (b - a)
			if t > 0 && t < 1 {
				ts = append(ts, t)
			}
		}
	}
	collect(e.A.X, e.B.X, c.G.Origin.X)
	collect(e.A.Y, e.B.Y, c.G.Origin.Y)
	sort.Float64s(ts)
	dir := e.B.Sub(e.A)
	for i := 0; i+1 < len(ts); i++ {
		p := e.A.Add(dir.Scale((ts[i] + ts[i+1]) / 2))
		gx, gy := c.G.PixelOf(p)
		c.Set(gx, gy, value)
	}
	gx, gy := c.G.PixelOf(e.A)
	c.Set(gx, gy, value)
	gx, gy = c.G.PixelOf(e.B)
	c.Set(gx, gy, value)
}
