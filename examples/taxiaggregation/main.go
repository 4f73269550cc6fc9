// Taxi aggregation: the motivating example of Figure 2 in the paper. A taxi
// service counts trips originating inside a region P. The MBR answer can
// include points far from P, while the distance-bounded raster answer only
// ever miscounts points within ε of P's boundary — making the approximate
// result interpretable. The counting runs through the engine's unified
// Request API over a registered resident dataset, so every bound folds the
// same sorted key and aggregate columns instead of re-streaming the points.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"distbound"
	"distbound/internal/data"
)

func main() {
	pts, _ := data.TaxiPoints(2, 200_000)

	// An irregular analysis region P (a jagged dodecagon downtown).
	center := distbound.Pt(data.CitySize/2, data.CitySize/2)
	var ring distbound.Ring
	for i := 0; i < 12; i++ {
		ang := 2 * math.Pi * float64(i) / 12
		r := 3000.0
		if i%2 == 0 {
			r = 5200
		}
		ring = append(ring, distbound.Pt(center.X+r*math.Cos(ang), center.Y+r*math.Sin(ang)))
	}
	p, err := distbound.NewPolygon(ring)
	if err != nil {
		log.Fatal(err)
	}

	// Exact count (the expensive way: one PIP test per point).
	exact := 0
	for _, pt := range pts {
		if p.ContainsPoint(pt) {
			exact++
		}
	}

	// MBR count (the classical filter answer) and how far its false
	// positives can be from P.
	mbr := p.Bounds()
	mbrCount, worstMBR := 0, 0.0
	for _, pt := range pts {
		if mbr.ContainsPoint(pt) {
			mbrCount++
			if !p.ContainsPoint(pt) {
				if d := p.BoundaryDist(pt); d > worstMBR {
					worstMBR = d
				}
			}
		}
	}

	// Distance-bounded counts through the engine: register the trips once,
	// then one Request per bound; the forced pointidx strategy resolves P's
	// cover ranges against the resident sorted keys and folds their counts.
	// The engine's domain covers its regions, so trips outside P's bounding
	// square are dropped at registration: they lie outside every cover and
	// can never match, and indexing only the candidates keeps the resident
	// artifact small. Dropped() makes the exclusion visible.
	e := distbound.NewEngine([]distbound.Region{p})
	ds, err := e.RegisterPoints("trips", pts, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered %d of %d trips (%d outside P's domain can never match)\n",
		ds.Len(), len(pts), ds.Dropped())
	ctx := context.Background()

	fmt.Printf("region P: %d vertices, area %.1f km²\n", len(ring), p.Area()/1e6)
	fmt.Printf("%-22s %8s  %s\n", "method", "count", "error interpretation")
	fmt.Printf("%-22s %8d  ground truth\n", "exact (PIP)", exact)
	fmt.Printf("%-22s %8d  false positives up to %.0f m from P!\n", "MBR filter", mbrCount, worstMBR)
	pidx := distbound.StrategyPointIdx
	for _, bound := range []float64{128, 32, 8} {
		resp, err := e.Do(ctx, distbound.Request{
			Dataset:  ds,
			Aggs:     []distbound.Agg{distbound.Count},
			Bound:    bound,
			Strategy: &pidx,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %8d  all errors within %g m of P's boundary\n",
			fmt.Sprintf("raster (ε = %g m)", bound), resp.Results[0].Counts[0], bound)
	}
}
