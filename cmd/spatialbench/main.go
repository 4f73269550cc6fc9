// Command spatialbench regenerates every table and figure of the paper's
// evaluation on the synthetic workloads.
//
// Usage:
//
//	spatialbench -experiment all                    # everything, default scale
//	spatialbench -experiment fig6 -points 10000000  # one figure, more points
//	spatialbench -experiment fig4a -quick           # fast smoke run
//
// Experiments: fig4a, fig4b, fig6, mem, fig7, ablapprox, ablcurve, all.
//
// The serving engine built on these approximations is measured by the repo
// benchmark instead: bash bench/run.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"distbound/internal/experiments"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment id (fig4a, fig4b, fig6, mem, fig7, ablapprox, ablcurve) or 'all'")
		points     = flag.Int("points", 2_000_000, "taxi point count (paper: 1.2e9)")
		census     = flag.Int("census", 2_000, "census polygon count (paper: 39,200)")
		seed       = flag.Int64("seed", 1, "synthetic data seed")
		quick      = flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	)
	flag.Parse()

	cfg := experiments.Config{
		Seed:        *seed,
		NumPoints:   *points,
		CensusCount: *census,
		Quick:       *quick,
	}

	var runners []experiments.Runner
	if *experiment == "all" {
		runners = experiments.Runners()
	} else {
		r, err := experiments.RunnerByName(*experiment)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}

	for _, r := range runners {
		fmt.Printf("running %s: %s\n", r.Name, r.Desc)
		start := time.Now()
		table, err := r.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.Name, err)
			os.Exit(1)
		}
		fmt.Printf("(completed in %v)\n\n", time.Since(start).Round(time.Millisecond))
		table.Render(os.Stdout)
	}
}
