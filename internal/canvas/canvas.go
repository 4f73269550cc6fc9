// Package canvas implements the rasterized-canvas data model and operator
// algebra of §4 of the paper (after Doraiswamy & Freire): a canvas is an
// image whose pixel size is derived from the distance bound, and queries are
// composed from a small set of parallelizable operators — blend, mask and
// affine translation — instead of geometry-specific spatial operators.
//
// The paper executes these operators on the GPU graphics pipeline; here they
// run on a software rasterizer that preserves the pipeline's semantics
// (centroid sampling, per-pixel aggregation in the color channels) and its
// cost model (work proportional to pixels plus primitives, with a maximum
// texture size that forces large canvases to be processed in tiles). That
// cost model — not the absolute GPU constant — is what produces the
// accuracy/time trade-off of Figure 7.
package canvas

import (
	"fmt"
	"math"

	"distbound/internal/geom"
)

// DefaultMaxTextureSize simulates the largest canvas dimension (in pixels)
// that a single "GPU pass" can process; finer distance bounds than the
// texture can hold force multi-pass tiled execution, the effect the paper
// describes for BRJ at a 1 m bound.
const DefaultMaxTextureSize = 4096

// Grid fixes a global pixel lattice: every canvas is a window onto this
// lattice, so canvases compose pixel-exactly regardless of their extents.
type Grid struct {
	// Origin is the lattice point of pixel (0, 0)'s lower-left corner.
	Origin geom.Point
	// PixelSize is the pixel side length. A distance bound eps corresponds
	// to PixelSize = eps/√2 (pixel diagonal = eps), per §2.2.
	PixelSize float64
}

// GridForBound returns a grid whose pixel diagonal equals the distance
// bound eps.
func GridForBound(origin geom.Point, eps float64) Grid {
	return Grid{Origin: origin, PixelSize: eps / math.Sqrt2}
}

// PixelOf returns the lattice coordinates of the pixel containing p
// (half-open pixels).
func (g Grid) PixelOf(p geom.Point) (int, int) {
	return int(math.Floor((p.X - g.Origin.X) / g.PixelSize)),
		int(math.Floor((p.Y - g.Origin.Y) / g.PixelSize))
}

// PixelRect returns the spatial extent of lattice pixel (x, y).
func (g Grid) PixelRect(x, y int) geom.Rect {
	minX := g.Origin.X + float64(x)*g.PixelSize
	minY := g.Origin.Y + float64(y)*g.PixelSize
	return geom.Rect{Min: geom.Pt(minX, minY), Max: geom.Pt(minX+g.PixelSize, minY+g.PixelSize)}
}

// PixelCenter returns the center of lattice pixel (x, y) — the sampling
// location of the rasterizer.
func (g Grid) PixelCenter(x, y int) geom.Point {
	return geom.Pt(
		g.Origin.X+(float64(x)+0.5)*g.PixelSize,
		g.Origin.Y+(float64(y)+0.5)*g.PixelSize,
	)
}

// Canvas is a rectangular window [X0, X0+W) × [Y0, Y0+H) onto a Grid with
// one float64 aggregate channel per pixel (the paper packs aggregates into
// the r/g/b/a channels of an off-screen buffer; one float64 channel carries
// the same information).
type Canvas struct {
	G      Grid
	X0, Y0 int
	W, H   int
	Pix    []float64
}

// NewCanvas allocates a zeroed canvas window.
func NewCanvas(g Grid, x0, y0, w, h int) (*Canvas, error) {
	if w < 0 || h < 0 {
		return nil, fmt.Errorf("canvas: negative dimensions %dx%d", w, h)
	}
	return &Canvas{G: g, X0: x0, Y0: y0, W: w, H: h, Pix: make([]float64, w*h)}, nil
}

// CanvasForRect allocates the smallest canvas window covering r.
func CanvasForRect(g Grid, r geom.Rect) (*Canvas, error) {
	if r.IsEmpty() {
		return NewCanvas(g, 0, 0, 0, 0)
	}
	x0, y0 := g.PixelOf(r.Min)
	x1, y1 := g.PixelOf(r.Max)
	return NewCanvas(g, x0, y0, x1-x0+1, y1-y0+1)
}

// Bounds returns the spatial extent of the canvas window.
func (c *Canvas) Bounds() geom.Rect {
	if c.W == 0 || c.H == 0 {
		return geom.EmptyRect()
	}
	return geom.Rect{
		Min: c.G.PixelRect(c.X0, c.Y0).Min,
		Max: c.G.PixelRect(c.X0+c.W-1, c.Y0+c.H-1).Max,
	}
}

// contains reports whether global pixel (gx, gy) is inside the window.
func (c *Canvas) contains(gx, gy int) bool {
	return gx >= c.X0 && gx < c.X0+c.W && gy >= c.Y0 && gy < c.Y0+c.H
}

// idx converts global pixel coordinates to a Pix index; the pixel must be
// inside the window.
func (c *Canvas) idx(gx, gy int) int { return (gy-c.Y0)*c.W + (gx - c.X0) }

// At returns the value at global pixel (gx, gy); pixels outside the window
// read as 0 (the paper's "empty pixel").
func (c *Canvas) At(gx, gy int) float64 {
	if !c.contains(gx, gy) {
		return 0
	}
	return c.Pix[c.idx(gx, gy)]
}

// Set writes the value at global pixel (gx, gy); writes outside the window
// are dropped (off-canvas fragments are clipped, as in the pipeline).
//
//distbound:api pixel write for library users of the §4 canvas algebra; tests build canvases with it
func (c *Canvas) Set(gx, gy int, v float64) {
	if c.contains(gx, gy) {
		c.Pix[c.idx(gx, gy)] = v
	}
}

// Add accumulates into global pixel (gx, gy) with clipping.
func (c *Canvas) Add(gx, gy int, v float64) {
	if c.contains(gx, gy) {
		c.Pix[c.idx(gx, gy)] += v
	}
}

// Clone returns a deep copy.
func (c *Canvas) Clone() *Canvas {
	out := *c
	out.Pix = append([]float64(nil), c.Pix...)
	return &out
}

// Sum returns the sum over all pixels — the final aggregation step.
func (c *Canvas) Sum() float64 {
	var s float64
	for _, v := range c.Pix {
		s += v
	}
	return s
}

// NonZero returns the number of non-empty pixels.
//
//distbound:oracle the scanline tests count covered pixels with it
func (c *Canvas) NonZero() int {
	n := 0
	for _, v := range c.Pix {
		if v != 0 {
			n++
		}
	}
	return n
}

// BlendFunc is the ⊙ of the blend operator.
type BlendFunc func(dst, src float64) float64

// Standard blend functions.
var (
	// BlendAdd accumulates values — the partial-aggregate blend of BRJ.
	BlendAdd BlendFunc = func(a, b float64) float64 { return a + b }
	// BlendMul multiplies values — composing a data canvas with a 0/1 mask
	// canvas realizes the mask-then-aggregate step.
	BlendMul BlendFunc = func(a, b float64) float64 { return a * b }
	// BlendMax and BlendMin keep extreme values (MAX/MIN aggregates).
	BlendMax BlendFunc = func(a, b float64) float64 { return math.Max(a, b) }
	BlendMin BlendFunc = func(a, b float64) float64 { return math.Min(a, b) }
	// BlendOver replaces dst by src wherever src is non-empty.
	BlendOver BlendFunc = func(a, b float64) float64 {
		if b != 0 {
			return b
		}
		return a
	}
)

// Blend merges src into dst over the overlap of their windows: dst[p] =
// f(dst[p], src[p]). Pixels of dst outside src are untouched. The canvases
// must share the same Grid.
//
//distbound:oracle TestDotSumsMatchesBlendThenSum holds the raster join's fused DotSums kernel to blend-then-sum
func Blend(dst, src *Canvas, f BlendFunc) error {
	if dst.G != src.G {
		return fmt.Errorf("canvas: blend across different grids")
	}
	x0 := max(dst.X0, src.X0)
	y0 := max(dst.Y0, src.Y0)
	x1 := min(dst.X0+dst.W, src.X0+src.W)
	y1 := min(dst.Y0+dst.H, src.Y0+src.H)
	for gy := y0; gy < y1; gy++ {
		di := dst.idx(x0, gy)
		si := src.idx(x0, gy)
		for gx := x0; gx < x1; gx++ {
			dst.Pix[di] = f(dst.Pix[di], src.Pix[si])
			di++
			si++
		}
	}
	return nil
}

// DotSums returns Σ m[p]·a[p] and, when b is non-nil, Σ m[p]·b[p] over the
// overlap of m's window with a's — the blend-with-BlendMul-then-Sum step of
// the raster join as one read-only pass that reads the mask once for both
// point channels; b must share a's window, as the count and weight canvases
// of one tile do. No canvas is written, so one mask serves both channels.
// Each channel is accumulated in the
// row-major order of Blend followed by Sum restricted to the overlap, so
// either result is bit-identical to the mutating form.
func DotSums(m, a, b *Canvas) (sa, sb float64, err error) {
	if m.G != a.G || b != nil && (b.G != a.G || b.X0 != a.X0 || b.Y0 != a.Y0 || b.W != a.W || b.H != a.H) {
		return 0, 0, fmt.Errorf("canvas: dot-sum across different grids or point-channel windows")
	}
	x0, y0 := max(m.X0, a.X0), max(m.Y0, a.Y0)
	n := min(m.X0+m.W, a.X0+a.W) - x0
	y1 := min(m.Y0+m.H, a.Y0+a.H)
	for gy := y0; gy < y1 && n > 0; gy++ {
		mi, ai := m.idx(x0, gy), a.idx(x0, gy)
		mrow := m.Pix[mi : mi+n]
		arow := a.Pix[ai : ai+n][:len(mrow)]
		if b == nil {
			for i, v := range mrow {
				sa += v * arow[i]
			}
			continue
		}
		brow := b.Pix[ai : ai+n][:len(mrow)]
		for i, v := range mrow {
			sa += v * arow[i]
			sb += v * brow[i]
		}
	}
	return sa, sb, nil
}

// Mask zeroes every pixel of c for which pred(mask value at that pixel) is
// false; pixels outside the mask canvas read as 0. This is the M operator of
// Figure 5.
func Mask(c, mask *Canvas, pred func(v float64) bool) error {
	if c.G != mask.G {
		return fmt.Errorf("canvas: mask across different grids")
	}
	for gy := c.Y0; gy < c.Y0+c.H; gy++ {
		i := c.idx(c.X0, gy)
		for gx := c.X0; gx < c.X0+c.W; gx++ {
			if !pred(mask.At(gx, gy)) {
				c.Pix[i] = 0
			}
			i++
		}
	}
	return nil
}
