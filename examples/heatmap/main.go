// Heatmap: uses the §4 canvas algebra directly — render points to a canvas
// (per-pixel partial aggregates), render a region mask, blend the two, and
// display the masked density as ASCII art. This is the visual-exploration
// use case that motivates the paper (Uber Movement-style tools).
package main

import (
	"fmt"
	"log"
	"math"

	"distbound"
	"distbound/internal/canvas"
	"distbound/internal/data"
)

func main() {
	pts, _ := data.TaxiPoints(5, 300_000)

	// A coarse canvas over the whole city: 64×64 pixels.
	bounds := data.CityBounds()
	eps := bounds.Width() / 64 * math.Sqrt2
	grid := canvas.GridForBound(bounds.Min, eps)
	density, err := canvas.CanvasForRect(grid, bounds)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pts {
		x, y := grid.PixelOf(p)
		density.Add(x, y, 1)
	}

	// Mask: keep only the downtown quarter (a region rendered as a canvas).
	downtown := data.DowntownBounds()
	dtPoly, err := distbound.NewPolygon(distbound.Ring{
		downtown.Min,
		distbound.Pt(downtown.Max.X, downtown.Min.Y),
		downtown.Max,
		distbound.Pt(downtown.Min.X, downtown.Max.Y),
	})
	if err != nil {
		log.Fatal(err)
	}
	mask, err := canvas.CanvasForRect(grid, dtPoly.Bounds())
	if err != nil {
		log.Fatal(err)
	}
	mask.RenderRegion(dtPoly, 1)

	masked := density.Clone()
	if err := canvas.Mask(masked, mask, func(v float64) bool { return v > 0 }); err != nil {
		log.Fatal(err)
	}

	fmt.Println("city-wide pickup density (every canvas pixel is ~1.4 km):")
	printCanvas(density)
	fmt.Printf("\nmasked to downtown (blend/mask operators, %d of %d pickups):\n",
		int(masked.Sum()), int(density.Sum()))
	printCanvas(masked)
}

func printCanvas(c *canvas.Canvas) {
	shades := []rune(" .:-=+*#%@")
	maxV := 0.0
	for _, v := range c.Pix {
		if v > maxV {
			maxV = v
		}
	}
	for y := c.Y0 + c.H - 1; y >= c.Y0; y-- {
		for x := c.X0; x < c.X0+c.W; x++ {
			v := c.At(x, y)
			idx := 0
			if maxV > 0 && v > 0 {
				idx = 1 + int(math.Log1p(v)/math.Log1p(maxV)*float64(len(shades)-2))
				if idx >= len(shades) {
					idx = len(shades) - 1
				}
			}
			fmt.Print(string(shades[idx]))
		}
		fmt.Println()
	}
}
