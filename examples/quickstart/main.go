// Quickstart: index a set of regions with a distance bound, answer
// point-in-region queries, and run a multi-aggregate query through the
// engine's unified Request/Response API — all without a single exact
// geometric test at query time.
package main

import (
	"context"
	"fmt"
	"log"

	"distbound"
	"distbound/internal/data"
	"distbound/internal/join"
)

func main() {
	// A city partitioned into 25 districts (synthetic, deterministic), and
	// two million... here: fifty thousand taxi pickups with fares.
	districts := data.Regions(data.Partition(7, 5, 5, 4))
	pts, fares := data.TaxiPoints(7, 50_000)

	// Build the polygon index: hierarchical raster approximations with a
	// 10 m Hausdorff bound, linearized and stored in an Adaptive Cell Trie.
	idx, err := join.NewACTJoiner(districts, distbound.DomainForRegions(districts...), distbound.Hilbert, 10 /* meters */, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("indexed %d districts as %d raster cells (%.1f MB), error bound 10 m\n",
		len(districts), idx.NumCells(), float64(idx.MemoryBytes())/(1<<20))

	// Point lookup: which district is this pickup in? The answer is exact
	// unless the point is within 10 m of a district boundary.
	p := pts[0]
	fmt.Printf("pickup at (%.0f, %.0f) is in district %d\n", p.X, p.Y, idx.LookupPoint(p))

	// Aggregation through the serving engine: one Request carries a set of
	// aggregates, and one plan, one index and one pass answer all of them.
	// The context cancels the query if the caller goes away.
	e := distbound.NewEngine(districts)
	resp, err := e.Do(context.Background(), distbound.Request{
		Points: distbound.PointSet{Pts: pts, Weights: fares},
		Aggs:   []distbound.Agg{distbound.Count, distbound.Avg, distbound.Max},
		Bound:  10, // same 10 m guarantee as the lookups above
	})
	if err != nil {
		log.Fatal(err)
	}
	counts, avgs, maxs := resp.Results[0], resp.Results[1], resp.Results[2]
	fmt.Printf("engine answered COUNT+AVG+MAX in one %v pass (%v)\n", resp.Strategy, resp.Wall.Round(1e6))
	for ri := 0; ri < 5; ri++ {
		fmt.Printf("district %d: %6d pickups, avg fare %.2f, top fare %.2f\n",
			ri, counts.Counts[ri], avgs.Value(ri), maxs.Value(ri))
	}
	fmt.Println("(remaining districts omitted)")
}
