// Range estimation: the §6 "Result Range Estimation" idea. A conservative
// raster approximation can only err at boundary cells, so tracking the
// partial count over boundary cells turns the approximate answer α into a
// guaranteed interval [α − ε_b, α] that contains the exact answer with 100%
// confidence — approximate processing with hard guarantees.
package main

import (
	"fmt"
	"log"

	"distbound"
	"distbound/internal/data"
	"distbound/internal/join"
)

func main() {
	districts := data.Regions(data.Partition(3, 4, 4, 5))
	pts, _ := data.TaxiPoints(3, 100_000)
	ps := distbound.PointSet{Pts: pts}

	// A deliberately coarse bound (200 m) so intervals are visibly wide.
	idx, err := join.NewACTJoiner(districts, distbound.DomainForRegions(districts...), distbound.Hilbert, 200, 0)
	if err != nil {
		log.Fatal(err)
	}
	approx, intervals, err := idx.AggregateWithRange(ps, distbound.Count)
	if err != nil {
		log.Fatal(err)
	}

	// Exact counts, for demonstration only — a real system would skip this.
	exact, err := distbound.BruteForceJoin(ps, districts, distbound.Count)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("COUNT per district with a 200 m distance bound:")
	fmt.Printf("%-9s %9s %22s %9s %s\n", "district", "approx α", "guaranteed interval", "exact", "inside?")
	for i := range districts {
		iv := intervals[i]
		ok := "yes"
		if !iv.Contains(float64(exact.Counts[i])) {
			ok = "NO (bug!)"
		}
		fmt.Printf("%-9d %9d [%8.0f, %8.0f] %9d %s\n",
			i, approx.Counts[i], iv.Lo, iv.Hi, exact.Counts[i], ok)
	}
	fmt.Println("\nshrink the bound to shrink the intervals — accuracy is a knob, not a hope.")
}
