package distbound

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"distbound/internal/data"
)

// TestResidentNeverFallsBackWhileWarm pins what a warm resident read costs
// under ingest: an unforced request on a registered dataset runs pointidx at
// every delta size below the compaction threshold, even with the streaming
// strategies' build artifacts resident, and probes no range. Every appended
// row is inverted exactly once per level read, by the dataset's maintainer or
// by a read that got there first: on alternate appends the reads race the
// maintainer, and on the others they wait for it and then probe nothing.
func TestResidentNeverFallsBackWhileWarm(t *testing.T) {
	e, ds, ps := requestFixture(t)
	ds.Compact()
	ctx := context.Background()
	bounds := []float64{64, 16} // coarse-first: each is served at its own level
	aggs := []Agg{Count, Sum, Avg}

	// Make every alternative as attractive as it can be: builds paid.
	for _, bound := range bounds {
		for _, s := range []Strategy{StrategyExact, StrategyACT, StrategyBRJ, StrategyPointIdx} {
			resp, err := e.Do(ctx, Request{Dataset: ds, Aggs: aggs, Bound: bound, Strategy: &s, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			resp.Release()
		}
	}

	// The fixture turns auto-compaction off, so the delta survives to the
	// default threshold's edge.
	const chunk = 4096
	for delta := chunk; delta < DefaultCompactionThreshold; delta += chunk {
		before := ds.Stats().DeltaProbed
		if _, err := ds.Append(ps.Pts[:chunk], ps.Weights[:chunk]); err != nil {
			t.Fatal(err)
		}
		waited := delta%(2*chunk) == 0
		if waited {
			waitMaintained(ds)
		}
		byReads := 0
		for _, bound := range bounds {
			resp, err := e.Do(ctx, Request{Dataset: ds, Aggs: aggs, Bound: bound, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Strategy != StrategyPointIdx {
				t.Fatalf("ε %g, delta %d: an unforced request fell back to %v", bound, delta, resp.Strategy)
			}
			if resp.ServedBound != ownBound(e, bound) {
				t.Fatalf("ε %g, delta %d: served at %g m, not at its own level", bound, delta, resp.ServedBound)
			}
			if resp.RangesProbed != 0 || (waited && resp.DeltaProbed != 0) {
				t.Fatalf("ε %g, delta %d (maintainer waited for: %v): the read did {%d %d} of work",
					bound, delta, waited, resp.RangesProbed, resp.DeltaProbed)
			}
			byReads += resp.DeltaProbed
			resp.Release()
		}
		waitMaintained(ds)
		if got, want := ds.Stats().DeltaProbed-before, chunk*len(bounds); got != want {
			t.Fatalf("delta %d: %d rows inverted (%d by the reads), want each of the %d new rows once per level read",
				delta, got, byReads, chunk)
		}
	}
}

// TestBackgroundCompactionRefreshesJoiners pins who pays for a compaction's
// new base: a threshold-triggered compaction runs on the dataset's
// maintainer, which then refreshes the joiners read since its previous pass,
// so the first read afterwards does no fill; a synchronous Compact never does
// that work on its caller's time, so the next read does.
func TestBackgroundCompactionRefreshesJoiners(t *testing.T) {
	e, ds, ps, _ := residentFixture(t, 4000)
	ctx := context.Background()
	pidx := StrategyPointIdx
	read := func(bound float64, aggs ...Agg) Response {
		t.Helper()
		resp, err := e.Do(ctx, Request{Dataset: ds, Aggs: aggs, Bound: bound, Strategy: &pidx})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Two ready joiners with different filled columns; a third bound stays
	// unbuilt and must stay that way.
	for _, resp := range []Response{read(16, Count, Sum), read(64, Count, Min, Max)} {
		resp.Release()
	}

	ds.SetCompactionThreshold(100)
	if _, err := ds.Append(ps.Pts[:150], ps.Weights[:150]); err != nil {
		t.Fatal(err)
	}
	waitMaintained(ds)
	if ds.Stats().Generation == 0 {
		t.Fatalf("the maintainer did not compact (stats %+v)", ds.Stats())
	}
	ds.SetCompactionThreshold(0)
	for _, c := range []struct {
		bound float64
		aggs  []Agg
	}{{16, []Agg{Count, Sum}}, {64, []Agg{Count, Min, Max}}} {
		resp := read(c.bound, c.aggs...)
		if resp.RangesProbed != 0 || resp.DeltaProbed != 0 {
			t.Errorf("bound %g: first read after a background compaction did {%d %d} of work; the maintainer should have refilled",
				c.bound, resp.RangesProbed, resp.DeltaProbed)
		}
		resp.Release()
	}
	if coverReady(e, 32) {
		t.Error("the refresh built a cover artifact nobody asked for")
	}

	if _, err := ds.Append(ps.Pts[:10], ps.Weights[:10]); err != nil {
		t.Fatal(err)
	}
	waitMaintained(ds) // its pass over the appended rows must not land after the Compact
	ds.Compact()
	resp := read(16, Count, Sum)
	if resp.RangesProbed == 0 {
		t.Error("a synchronous Compact refreshed the joiners on its caller's time")
	}
	resp.Release()
}

// TestOneAdvancePerCommittedState pins what ingest costs a level, counted
// from DatasetStats, so the maintainer's work is included: one appender,
// which reads after each of its appends, drives threshold compactions on the
// dataset's maintainer beside 0, 1, 2 or 4 readers of the same level; each
// append's read races the maintainer's pass that the append starts.
// However the reads, the maintainer's passes and the compactions interleave,
// the level's base is filled at most once per generation — once for every
// generation when the appender reads alone — and no appended row is inverted
// twice.
func TestOneAdvancePerCommittedState(t *testing.T) {
	const bound, chunk, appends, threshold = 16, 300, 40, 1000
	pts, ws := data.TaxiPoints(95, 8000+chunk*appends)
	for _, readers := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprintf("readers=%d", readers), func(t *testing.T) {
			e := NewEngine(dataRegions(92, 5, 5, 8))
			ds, err := e.RegisterPoints("ingest", pts[:8000], ws[:8000])
			if err != nil {
				t.Fatal(err)
			}
			ds.SetCompactionThreshold(threshold)
			ctx := context.Background()
			read := func() error {
				resp, err := e.Do(ctx, Request{Dataset: ds, Aggs: []Agg{Count, Sum}, Bound: bound, Workers: 1})
				if err == nil && resp.Strategy != StrategyPointIdx {
					err = fmt.Errorf("read ran %v, want pointidx", resp.Strategy)
				}
				resp.Release()
				return err
			}
			if err := read(); err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if err := read(); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			for i := 0; i < appends; i++ {
				// The previous append's pass first, so every threshold
				// crossing compacts: this append's read races the pass it
				// starts.
				waitMaintained(ds)
				off := 8000 + i*chunk
				if _, err := ds.Append(pts[off:off+chunk], ws[off:off+chunk]); err != nil {
					t.Fatal(err)
				}
				if err := read(); err != nil {
					t.Fatal(err)
				}
			}
			close(stop)
			wg.Wait()
			waitMaintained(ds)
			if err := read(); err != nil { // the last generation's base, if no pass filled it
				t.Fatal(err)
			}
			c, _ := coverAt(e, bound)
			ranges, st := c.set.NumRanges(), ds.Stats()
			// A compaction every fourth append: 4 × 300 rows cross 1000.
			if st.Generation != appends/4 {
				t.Fatalf("%d threshold compactions, want %d", st.Generation, appends/4)
			}
			fills := st.RangesProbed / ranges
			if st.RangesProbed%ranges != 0 || fills > int(st.Generation)+1 || (readers == 0 && fills != int(st.Generation)+1) {
				t.Errorf("%d ranges probed: %d base fills over %d generations, want one each", st.RangesProbed, fills, st.Generation+1)
			}
			if st.DeltaProbed > chunk*appends {
				t.Errorf("%d delta rows inverted for %d appended: a row was inverted twice", st.DeltaProbed, chunk*appends)
			}
		})
	}
}
