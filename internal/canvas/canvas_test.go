package canvas

import (
	"math"
	"math/rand"
	"testing"

	"distbound/internal/geom"
)

func grid1(t *testing.T) Grid {
	t.Helper()
	return Grid{Origin: geom.Pt(0, 0), PixelSize: 1}
}

func TestGridPixelMapping(t *testing.T) {
	g := Grid{Origin: geom.Pt(10, 20), PixelSize: 2}
	x, y := g.PixelOf(geom.Pt(10, 20))
	if x != 0 || y != 0 {
		t.Errorf("PixelOf origin = (%d,%d)", x, y)
	}
	x, y = g.PixelOf(geom.Pt(15.9, 25.9))
	if x != 2 || y != 2 {
		t.Errorf("PixelOf = (%d,%d), want (2,2)", x, y)
	}
	r := g.PixelRect(2, 2)
	if r.Min != geom.Pt(14, 24) || r.Max != geom.Pt(16, 26) {
		t.Errorf("PixelRect = %v", r)
	}
	if c := g.PixelCenter(0, 0); !c.Eq(geom.Pt(11, 21)) {
		t.Errorf("PixelCenter = %v", c)
	}
	if math.Abs(GridForBound(geom.Pt(0, 0), 10).PixelSize*math.Sqrt2-10) > 1e-12 {
		t.Error("GridForBound does not round-trip the bound")
	}
}

func TestCanvasReadWriteClipping(t *testing.T) {
	g := grid1(t)
	c, err := NewCanvas(g, 5, 5, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	c.Set(5, 5, 2)
	c.Add(8, 7, 3)
	c.Set(4, 5, 99) // clipped
	c.Add(9, 7, 99) // clipped
	if c.At(5, 5) != 2 || c.At(8, 7) != 3 {
		t.Error("read-back failed")
	}
	if c.At(4, 5) != 0 || c.At(100, 100) != 0 {
		t.Error("out-of-window reads must be 0")
	}
	if c.Sum() != 5 || c.NonZero() != 2 {
		t.Errorf("Sum=%v NonZero=%d", c.Sum(), c.NonZero())
	}
	if _, err := NewCanvas(g, 0, 0, -1, 2); err == nil {
		t.Error("negative dims accepted")
	}
}

func TestCanvasForRectCoversRect(t *testing.T) {
	g := Grid{Origin: geom.Pt(0, 0), PixelSize: 4}
	r := geom.Rect{Min: geom.Pt(3, 3), Max: geom.Pt(17, 9)}
	c, err := CanvasForRect(g, r)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Bounds().ContainsRect(r) {
		t.Errorf("canvas %v does not cover %v", c.Bounds(), r)
	}
}

func TestBlendAdd(t *testing.T) {
	g := grid1(t)
	a, _ := NewCanvas(g, 0, 0, 4, 4)
	b, _ := NewCanvas(g, 2, 2, 4, 4) // overlaps a in [2,4)x[2,4)
	a.Set(2, 2, 1)
	a.Set(0, 0, 5)
	b.Set(2, 2, 2)
	b.Set(5, 5, 7) // outside a
	if err := Blend(a, b, BlendAdd); err != nil {
		t.Fatal(err)
	}
	if a.At(2, 2) != 3 {
		t.Errorf("blend overlap = %v", a.At(2, 2))
	}
	if a.At(0, 0) != 5 {
		t.Error("non-overlap pixel touched")
	}
	if a.At(5, 5) != 0 {
		t.Error("blend wrote outside dst")
	}
	other := Grid{Origin: geom.Pt(1, 1), PixelSize: 1}
	cOther, _ := NewCanvas(other, 0, 0, 2, 2)
	if err := Blend(a, cOther, BlendAdd); err == nil {
		t.Error("cross-grid blend accepted")
	}
}

func TestBlendFuncs(t *testing.T) {
	if BlendAdd(2, 3) != 5 || BlendMul(2, 3) != 6 {
		t.Error("add/mul wrong")
	}
	if BlendMax(2, 3) != 3 || BlendMin(2, 3) != 2 {
		t.Error("max/min wrong")
	}
	if BlendOver(2, 3) != 3 || BlendOver(2, 0) != 2 {
		t.Error("over wrong")
	}
}

func TestBlendAddCommutesOnEqualWindows(t *testing.T) {
	g := grid1(t)
	rng := rand.New(rand.NewSource(1))
	a, _ := NewCanvas(g, 0, 0, 8, 8)
	b, _ := NewCanvas(g, 0, 0, 8, 8)
	for i := range a.Pix {
		a.Pix[i] = float64(rng.Intn(10))
		b.Pix[i] = float64(rng.Intn(10))
	}
	ab := a.Clone()
	if err := Blend(ab, b, BlendAdd); err != nil {
		t.Fatal(err)
	}
	ba := b.Clone()
	if err := Blend(ba, a, BlendAdd); err != nil {
		t.Fatal(err)
	}
	for i := range ab.Pix {
		if ab.Pix[i] != ba.Pix[i] {
			t.Fatalf("add blend not commutative at %d", i)
		}
	}
}

func TestMask(t *testing.T) {
	g := grid1(t)
	c, _ := NewCanvas(g, 0, 0, 4, 4)
	for i := range c.Pix {
		c.Pix[i] = 1
	}
	m, _ := NewCanvas(g, 0, 0, 2, 4) // covers left half
	for i := range m.Pix {
		m.Pix[i] = 1
	}
	if err := Mask(c, m, func(v float64) bool { return v > 0 }); err != nil {
		t.Fatal(err)
	}
	// Left half kept, right half zeroed (mask reads 0 outside its window).
	if c.At(0, 0) != 1 || c.At(1, 3) != 1 {
		t.Error("masked-in pixels lost")
	}
	if c.At(2, 0) != 0 || c.At(3, 3) != 0 {
		t.Error("masked-out pixels kept")
	}
	// Mask is idempotent.
	before := append([]float64(nil), c.Pix...)
	if err := Mask(c, m, func(v float64) bool { return v > 0 }); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if c.Pix[i] != before[i] {
			t.Fatal("mask not idempotent")
		}
	}
}

func TestRenderRegionCentroidRule(t *testing.T) {
	g := grid1(t)
	c, _ := NewCanvas(g, 0, 0, 10, 10)
	// Square covering pixel centers of (2..5, 2..5).
	p := geom.MustPolygon(geom.Ring{geom.Pt(2, 2), geom.Pt(6, 2), geom.Pt(6, 6), geom.Pt(2, 6)})
	c.RenderRegion(p, 1)
	if got := c.NonZero(); got != 16 {
		t.Errorf("covered pixels = %d, want 16", got)
	}
	for gy := 2; gy < 6; gy++ {
		for gx := 2; gx < 6; gx++ {
			if c.At(gx, gy) != 1 {
				t.Errorf("pixel (%d,%d) not covered", gx, gy)
			}
		}
	}
	if c.At(1, 3) != 0 || c.At(6, 3) != 0 {
		t.Error("outside pixels covered")
	}
}

func TestRenderRegionMatchesCentroidOracle(t *testing.T) {
	g := Grid{Origin: geom.Pt(0, 0), PixelSize: 0.5}
	rng := rand.New(rand.NewSource(2))
	ring := make(geom.Ring, 14)
	for i := range ring {
		ang := 2 * math.Pi * float64(i) / float64(len(ring))
		r := 5 + rng.Float64()*10
		ring[i] = geom.Pt(20+r*math.Cos(ang), 20+r*math.Sin(ang))
	}
	p := geom.MustPolygon(ring)
	c, err := CanvasForRect(g, p.Bounds())
	if err != nil {
		t.Fatal(err)
	}
	c.RenderRegion(p, 1)
	for gy := c.Y0; gy < c.Y0+c.H; gy++ {
		for gx := c.X0; gx < c.X0+c.W; gx++ {
			want := 0.0
			if p.ContainsPoint(g.PixelCenter(gx, gy)) {
				want = 1
			}
			if got := c.At(gx, gy); got != want {
				t.Fatalf("pixel (%d,%d): got %v, want %v", gx, gy, got, want)
			}
		}
	}
}

func TestRenderRegionGenericFallback(t *testing.T) {
	g := Grid{Origin: geom.Pt(0, 0), PixelSize: 0.5}
	p := geom.MustPolygon(geom.Ring{geom.Pt(1, 1), geom.Pt(9, 1), geom.Pt(9, 9), geom.Pt(1, 9)})
	fast, _ := CanvasForRect(g, p.Bounds())
	fast.RenderRegion(p, 1)
	slow, _ := CanvasForRect(g, p.Bounds())
	slow.RenderRegion(struct{ geom.Region }{p}, 1)
	if fast.Sum() != slow.Sum() {
		t.Errorf("fast %v vs generic %v", fast.Sum(), slow.Sum())
	}
}

func TestBRJStyleComposition(t *testing.T) {
	// End-to-end mini-BRJ: scatter points, render a polygon mask, multiply,
	// sum — and compare with the exact count.
	g := Grid{Origin: geom.Pt(0, 0), PixelSize: 0.25}
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Point, 5000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*20, rng.Float64()*20)
	}
	p := geom.MustPolygon(geom.Ring{geom.Pt(4, 4), geom.Pt(16, 5), geom.Pt(14, 15), geom.Pt(5, 13)})

	ptCanvas, _ := CanvasForRect(g, geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(20, 20)})
	for _, pt := range pts {
		gx, gy := g.PixelOf(pt)
		ptCanvas.Add(gx, gy, 1)
	}
	maskCanvas, _ := CanvasForRect(g, p.Bounds())
	maskCanvas.RenderRegion(p, 1)
	joined := maskCanvas.Clone()
	if err := Blend(joined, ptCanvas, func(mask, pt float64) float64 { return mask * pt }); err != nil {
		t.Fatal(err)
	}
	got := joined.Sum()

	exact := 0
	for _, pt := range pts {
		if p.ContainsPoint(pt) {
			exact++
		}
	}
	// The approximate count must be within the error attainable at the
	// boundary: allow 5% here (pixel diagonal 0.35 on a polygon of diameter
	// ~12).
	if math.Abs(got-float64(exact)) > 0.05*float64(exact) {
		t.Errorf("BRJ-style count %v vs exact %d", got, exact)
	}
	if exact == 0 {
		t.Fatal("degenerate test: no points inside")
	}
}

// TestDotSumsMatchesBlendThenSum: each channel of the read-only kernel is the
// mutating form — Blend with BlendMul, then Sum — bit for bit, with or without
// the second channel, over a mask that only partly overlaps the point canvas.
func TestDotSumsMatchesBlendThenSum(t *testing.T) {
	g := Grid{Origin: geom.Pt(0, 0), PixelSize: 1}
	rng := rand.New(rand.NewSource(9))
	fill := func(c *Canvas) *Canvas {
		for i := range c.Pix {
			c.Pix[i] = rng.Float64()
		}
		return c
	}
	newCanvas := func(x0, y0, w, h int) *Canvas {
		c, err := NewCanvas(g, x0, y0, w, h)
		if err != nil {
			t.Fatal(err)
		}
		return fill(c)
	}
	a, b := newCanvas(0, 0, 30, 20), newCanvas(0, 0, 30, 20)
	for _, m := range []*Canvas{newCanvas(5, 5, 10, 8), newCanvas(-4, 12, 12, 20), newCanvas(40, 40, 3, 3)} {
		blendSum := func(pts *Canvas) float64 {
			j := m.Clone()
			for i := range j.Pix {
				j.Pix[i] = 0 // outside the overlap the product is with an empty pixel
			}
			if err := Blend(j, pts, BlendOver); err != nil {
				t.Fatal(err)
			}
			if err := Blend(j, m, BlendMul); err != nil {
				t.Fatal(err)
			}
			return j.Sum()
		}
		sa, sb, err := DotSums(m, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if sa != blendSum(a) || sb != blendSum(b) {
			t.Errorf("mask at (%d,%d): DotSums %v, %v; blend-then-sum %v, %v", m.X0, m.Y0, sa, sb, blendSum(a), blendSum(b))
		}
		if alone, zero, err := DotSums(m, a, nil); err != nil || alone != sa || zero != 0 {
			t.Errorf("mask at (%d,%d): one channel %v, %v (%v), want %v, 0", m.X0, m.Y0, alone, zero, err, sa)
		}
	}
	m := newCanvas(0, 0, 4, 4)
	if _, _, err := DotSums(m, a, newCanvas(1, 0, 30, 20)); err == nil {
		t.Error("point channels over different windows accepted")
	}
	other, _ := NewCanvas(Grid{PixelSize: 2}, 0, 0, 4, 4)
	if _, _, err := DotSums(other, a, nil); err == nil {
		t.Error("mask on a different grid accepted")
	}
}
