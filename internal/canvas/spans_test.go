package canvas

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"distbound/internal/data"
	"distbound/internal/geom"
)

// denseRenderRegion is the per-pixel rasterizer RenderRegion was before its
// scanline became RegionSpans: crossings filled pixel by pixel for polygons,
// a ContainsPoint test per pixel center otherwise. It is the reference the
// span emitter is held to.
func denseRenderRegion(c *Canvas, rg geom.Region, value float64) {
	polys := geom.Polygons(rg)
	bb := rg.Bounds().Intersection(c.Bounds())
	if bb.IsEmpty() {
		return
	}
	gx0, gy0 := c.G.PixelOf(bb.Min)
	gx1, gy1 := c.G.PixelOf(bb.Max)
	gx0, gy0 = max(gx0, c.X0), max(gy0, c.Y0)
	gx1, gy1 = min(gx1, c.X0+c.W-1), min(gy1, c.Y0+c.H-1)
	if polys == nil {
		for gy := gy0; gy <= gy1; gy++ {
			for gx := gx0; gx <= gx1; gx++ {
				if rg.ContainsPoint(c.G.PixelCenter(gx, gy)) {
					c.Pix[c.idx(gx, gy)] = value
				}
			}
		}
		return
	}
	var rings []geom.Ring
	for _, p := range polys {
		rings = append(rings, p.Rings()...)
	}
	for gy := gy0; gy <= gy1; gy++ {
		cy := c.G.Origin.Y + (float64(gy)+0.5)*c.G.PixelSize
		var xs []float64
		for _, ring := range rings {
			for i := range ring {
				e := ring.Edge(i)
				if (e.A.Y <= cy) != (e.B.Y <= cy) {
					xs = append(xs, e.A.X+(cy-e.A.Y)*(e.B.X-e.A.X)/(e.B.Y-e.A.Y))
				}
			}
		}
		sort.Float64s(xs)
		for k := 0; k+1 < len(xs); k += 2 {
			lo := int(math.Ceil((xs[k]-c.G.Origin.X)/c.G.PixelSize - 0.5))
			hi := int(math.Ceil((xs[k+1]-c.G.Origin.X)/c.G.PixelSize-0.5)) - 1
			for gx := max(lo, gx0); gx <= min(hi, gx1); gx++ {
				c.Pix[c.idx(gx, gy)] = value
			}
		}
	}
}

// TestRegionSpansMatchRenderRegion: the runs RegionSpans emits lie in the
// window, come row by row ascending with disjoint runs ascending in x, and
// filled they are the per-pixel rasterizer's canvas, pixel for pixel, and
// RenderRegion's — over the benchmark partition, the vertex-heavy
// neighborhoods, a polygon with a hole, an overlapping MultiPolygon and a
// Circle (the generic fallback), each on whole mask windows and on windows a
// 97-pixel tiling clips.
func TestRegionSpansMatchRenderRegion(t *testing.T) {
	square := func(x0, y0, s float64) geom.Ring {
		return geom.Ring{geom.Pt(x0, y0), geom.Pt(x0+s, y0), geom.Pt(x0+s, y0+s), geom.Pt(x0, y0+s)}
	}
	holed := geom.MustPolygon(square(3000, 3000, 4000), square(4000, 4000, 1500))
	overlap := geom.NewMultiPolygon(geom.MustPolygon(square(9000, 2000, 3000)), geom.MustPolygon(square(10500, 3500, 3000)))
	sets := map[string][]geom.Region{
		"partition":     data.Regions(data.Partition(1, 16, 16, 12)),
		"neighborhoods": data.Regions(data.Neighborhoods(1)),
		"shapes":        {holed, overlap, geom.Circle{Center: geom.Pt(20000, 20000), Radius: 2500.3}},
	}
	g := GridForBound(data.CityBounds().Min, 64)
	const tile = 97
	covered := 0
	for name, regions := range sets {
		for ri, rg := range regions {
			whole, err := CanvasForRect(g, rg.Bounds())
			if err != nil {
				t.Fatal(err)
			}
			windows := []*Canvas{whole}
			for ty := floorDiv(whole.Y0, tile); ty*tile < whole.Y0+whole.H; ty++ {
				for tx := floorDiv(whole.X0, tile); tx*tile < whole.X0+whole.W; tx++ {
					c, err := NewCanvas(g, tx*tile, ty*tile, tile, tile)
					if err != nil {
						t.Fatal(err)
					}
					windows = append(windows, c)
				}
			}
			for wi, win := range windows {
				what := fmt.Sprintf("%s region %d window %d", name, ri, wi)
				want := win.Clone()
				denseRenderRegion(want, rg, 1)
				rendered := win.Clone()
				rendered.RenderRegion(rg, 1)
				filled := win.Clone()
				lastY, lastHi := math.MinInt, math.MinInt
				g.RegionSpans(rg, win.X0, win.Y0, win.W, win.H, func(gy, lo, hi int) {
					if gy < lastY || gy == lastY && lo <= lastHi || lo > hi ||
						lo < win.X0 || hi >= win.X0+win.W || gy < win.Y0 || gy >= win.Y0+win.H {
						t.Fatalf("%s: run %d..%d of row %d after row %d ending %d", what, lo, hi, gy, lastY, lastHi)
					}
					lastY, lastHi = gy, hi
					for gx := lo; gx <= hi; gx++ {
						filled.Set(gx, gy, 1)
					}
				})
				for i := range want.Pix {
					if filled.Pix[i] != want.Pix[i] || rendered.Pix[i] != want.Pix[i] {
						t.Fatalf("%s: pixel %d spans %v, RenderRegion %v, per-pixel reference %v",
							what, i, filled.Pix[i], rendered.Pix[i], want.Pix[i])
					}
				}
				covered += want.NonZero()
			}
		}
	}
	if covered == 0 {
		t.Fatal("no pixel covered")
	}
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && a < 0 {
		q--
	}
	return q
}
