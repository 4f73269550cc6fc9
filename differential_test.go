package distbound

import (
	"fmt"
	"math/rand"
	"testing"

	"distbound/internal/data"
	"distbound/internal/testutil"
)

// TestDifferentialMutableVsRebuild is the acceptance harness for the write
// path: after an arbitrary Append/Delete sequence, every strategy's
// Do result over the mutated dataset must be bit-identical to
// the same strategy over a dataset freshly registered from the surviving
// points — pre- and post-compaction, for all five aggregates — and every
// bounded strategy must respect the distance-bound guarantee against ground
// truth. Weights come from testutil.ExactWeights, so float reassociation
// cannot mask (or fake) a divergence.
func TestDifferentialMutableVsRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	regions := dataRegions(72, 6, 6, 8)
	pool, _ := data.TaxiPoints(73, 24_000)
	weights := testutil.ExactWeights(rng, len(pool))

	e := NewEngine(regions)
	ds, err := e.RegisterPoints("live", pool[:16_000], weights[:16_000])
	if err != nil {
		t.Fatal(err)
	}
	ds.SetCompactionThreshold(0) // compaction is driven explicitly below

	// Random mutation script: interleaved appends from the reserve and
	// deletes of random live IDs.
	live := make([]uint64, 0, len(pool))
	for id := uint64(0); id < 16_000; id++ {
		live = append(live, id)
	}
	off := 16_000
	for round := 0; round < 6; round++ {
		n := 500 + rng.Intn(1000)
		if off+n > len(pool) {
			n = len(pool) - off
		}
		ids, err := ds.Append(pool[off:off+n], weights[off:off+n])
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, ids...)
		off += n
		for k := 0; k < 400+rng.Intn(400); k++ {
			i := rng.Intn(len(live))
			ds.Delete(live[i])
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	if st := ds.Stats(); st.Tombstones == 0 || st.DeltaLive == 0 || st.DeltaDead == 0 {
		t.Fatalf("mutation script failed to exercise every structure: %+v", st)
	}

	strategies := []Strategy{StrategyExact, StrategyACT, StrategyBRJ, StrategyPointIdx}
	aggs := []Agg{Count, Sum, Avg, Min, Max}
	check := func(phase string) {
		t.Helper()
		pts, ws := ds.Points()
		if len(pts) != len(live) {
			t.Fatalf("%s: %d survivors, reference holds %d", phase, len(pts), len(live))
		}
		rebuilt := NewEngine(regions)
		ds2, err := rebuilt.RegisterPoints("rebuild", pts, ws)
		if err != nil {
			t.Fatal(err)
		}
		brutePS := PointSet{Pts: pts, Weights: ws}
		for _, bound := range []float64{16, 64} {
			cls := testutil.Classify(pts, ws, regions, bound)
			for _, agg := range aggs {
				brute, err := BruteForceJoin(brutePS, regions, agg)
				if err != nil {
					t.Fatal(err)
				}
				for _, strat := range strategies {
					if strat == StrategyBRJ && (agg == Min || agg == Max) {
						continue
					}
					label := fmt.Sprintf("%s bound=%g %v %v", phase, bound, agg, strat)
					got, err := e.runDataset(ds, agg, bound, strat, 1)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					want, err := rebuilt.runDataset(ds2, agg, bound, strat, 1)
					if err != nil {
						t.Fatalf("%s rebuild: %v", label, err)
					}
					// The acceptance criterion: mutated serving state and a
					// from-scratch rebuild are indistinguishable, bitwise.
					testutil.CheckIdentical(t, label, want, got)
					if strat == StrategyExact {
						testutil.CheckIdentical(t, label+" vs brute force", brute, got)
					} else {
						cls.Check(t, label, agg, got)
					}
				}
			}
		}
	}

	check("pre-compaction")
	gen := ds.Stats().Generation
	ds.Compact()
	if ds.Stats().Generation != gen+1 {
		t.Fatalf("compaction did not bump the generation")
	}
	if st := ds.Stats(); st.Tombstones != 0 || st.DeltaLive != 0 || st.DeltaDead != 0 {
		t.Fatalf("compaction left residue: %+v", st)
	}
	check("post-compaction")
}
