package join

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"distbound/internal/data"
	"distbound/internal/geom"
)

func brjWorkload(n int) (PointSet, []geom.Region, geom.Rect) {
	pts, weights := data.TaxiPoints(31, n)
	regions := data.Regions(data.Partition(32, 6, 6, 6))
	return PointSet{Pts: pts, Weights: weights}, regions, data.CityBounds()
}

func TestBRJJoinerMatchesBRJRun(t *testing.T) {
	ps, regions, bounds := brjWorkload(30000)
	for _, bound := range []float64{48, 256} {
		brj := BRJ{Bound: bound, Bounds: bounds}
		j, err := NewBRJJoiner(regions, bounds, bound, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, agg := range []Agg{Count, Sum, Avg} {
			want, _, err := brj.Run(ps, regions, agg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := j.Aggregate(ps, agg)
			if err != nil {
				t.Fatal(err)
			}
			for ri := range regions {
				if got.Counts[ri] != want.Counts[ri] {
					t.Fatalf("bound=%g %v region %d: cached %d, one-shot %d",
						bound, agg, ri, got.Counts[ri], want.Counts[ri])
				}
				// Sequential iteration order matches BRJ.Run exactly, so
				// sums — and hence values — must be bit-identical too.
				if got.Value(ri) != want.Value(ri) {
					t.Fatalf("bound=%g %v region %d: cached value %g, one-shot %g",
						bound, agg, ri, got.Value(ri), want.Value(ri))
				}
			}
		}
	}
}

func TestBRJJoinerTiledMatchesUntiled(t *testing.T) {
	ps, regions, bounds := brjWorkload(20000)
	// A tiny texture cap forces many passes; results must not change.
	big, err := NewBRJJoiner(regions, bounds, 64, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewBRJJoiner(regions, bounds, 64, 200, 0)
	if err != nil {
		t.Fatal(err)
	}
	if small.Stats().NumTiles <= big.Stats().NumTiles {
		t.Fatalf("texture cap did not tile: %d vs %d tiles",
			small.Stats().NumTiles, big.Stats().NumTiles)
	}
	a, err := big.Aggregate(ps, Count)
	if err != nil {
		t.Fatal(err)
	}
	b, err := aggregateAt(small, ps, Count, 4)
	if err != nil {
		t.Fatal(err)
	}
	for ri := range regions {
		if a.Counts[ri] != b.Counts[ri] {
			t.Fatalf("region %d: untiled %d, tiled-parallel %d", ri, a.Counts[ri], b.Counts[ri])
		}
	}
}

func TestBRJJoinerConcurrentUse(t *testing.T) {
	ps, regions, bounds := brjWorkload(10000)
	j, err := NewBRJJoiner(regions, bounds, 48, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := j.Aggregate(ps, Count)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := aggregateAt(j, ps, Count, 2)
				if err != nil {
					t.Error(err)
					return
				}
				for ri := range regions {
					if got.Counts[ri] != want.Counts[ri] {
						t.Errorf("concurrent run diverged at region %d", ri)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestBRJJoinerRejectsExtremes(t *testing.T) {
	ps, regions, bounds := brjWorkload(100)
	j, err := NewBRJJoiner(regions, bounds, 64, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Aggregate(ps, Min); err == nil {
		t.Error("MIN accepted by raster join")
	}
	if _, err := NewBRJJoiner(regions, bounds, 0, 0, 0); err == nil {
		t.Error("zero bound accepted")
	}
}

func TestBRJJoinerAccounting(t *testing.T) {
	_, regions, bounds := brjWorkload(0)
	j, err := NewBRJJoiner(regions, bounds, 64, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if j.Bound() != 64 || st.MaskPixels <= 0 || j.MemoryBytes() <= 0 {
		t.Errorf("accounting wrong: bound=%g stats=%+v mem=%d", j.Bound(), st, j.MemoryBytes())
	}
}

// sameResults is bitIdentical over a whole aggregate set: counts equal, sums
// equal by their IEEE bits, so a re-associated addition shows.
func sameResults(t *testing.T, what string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for k := range want {
		bitIdentical(t, what, want[k], got[k])
	}
}

// TestBRJJoinerSumsIndependentOfWorkers: tiles run in order and a mask is
// folded by one worker, so a region's sum — fractional fares, regions that
// straddle the seams of a 9×9 tiling — is associated the same way at every
// worker count, and the way the one-shot join associates it. (A pool handing
// tiles to workers, as this joiner once did, could differ in the last bits of
// every region that spans a seam.)
func TestBRJJoinerSumsIndependentOfWorkers(t *testing.T) {
	ps, regions, bounds := brjWorkload(30000)
	const bound, maxTex = 64, 200
	j, err := NewBRJJoiner(regions, bounds, bound, maxTex, 0)
	if err != nil {
		t.Fatal(err)
	}
	if j.Stats().NumTiles < 4 {
		t.Fatalf("%d tiles, want several", j.Stats().NumTiles)
	}
	seams := 0
	for ri := range regions {
		n := 0
		for _, masks := range j.tiles {
			for _, m := range masks {
				if int(m.region) == ri {
					n++
				}
			}
		}
		if n > 1 {
			seams++
		}
	}
	if seams == 0 {
		t.Fatal("no region spans a tile seam")
	}
	oneShot, _, err := BRJ{Bound: bound, Bounds: bounds, MaxTextureSize: maxTex}.Run(ps, regions, Sum)
	if err != nil {
		t.Fatal(err)
	}
	ctx, aggs := context.Background(), []Agg{Count, Sum}
	want, err := j.AggregateMulti(ctx, ps, aggs, 1)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "one worker vs BRJ.Run", want[1:], []Result{oneShot})
	for _, workers := range []int{2, 3, 8} {
		got, err := j.AggregateMulti(ctx, ps, aggs, workers)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, fmt.Sprintf("workers=%d", workers), got, want)
	}
}

// TestBRJJoinerRetainedCanvasesStayClean: the point canvases outlive a call,
// so every call on a used joiner must answer what a fresh joiner answers —
// over disjoint, overlapping and empty point sets, and with a count-only run
// after a summing one (the weight canvas is retained too, and must not be
// read).
func TestBRJJoinerRetainedCanvasesStayClean(t *testing.T) {
	ps, regions, bounds := brjWorkload(20000)
	slice := func(lo, hi int) PointSet { return PointSet{Pts: ps.Pts[lo:hi], Weights: ps.Weights[lo:hi]} }
	ctx := context.Background()
	for _, maxTex := range []int{0, 300} {
		used, err := NewBRJJoiner(regions, bounds, 64, maxTex, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, call := range []struct {
			ps   PointSet
			aggs []Agg
		}{
			{slice(0, 8000), []Agg{Count}},
			{slice(8000, 20000), []Agg{Count, Sum}}, // disjoint from the first
			{slice(4000, 12000), []Agg{Count}},      // overlaps both, count-only after a sum
			{slice(0, 0), []Agg{Count, Sum}},
			{slice(0, 20000), []Agg{Sum, Avg}},
		} {
			fresh, err := NewBRJJoiner(regions, bounds, 64, maxTex, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.AggregateMulti(ctx, call.ps, call.aggs, 1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := used.AggregateMulti(ctx, call.ps, call.aggs, 2)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, fmt.Sprintf("maxTex=%d call %d", maxTex, i), got, want)
		}
		sc := used.scratch.Load()
		if sc == nil || sc.sum == nil {
			t.Fatalf("maxTex=%d: no point-canvas pair retained", maxTex)
		}
		if got, want := used.MemoryBytes(), 8*(int(used.Stats().MaskPixels)+len(sc.count)+len(sc.sum)); got != want {
			t.Errorf("maxTex=%d: MemoryBytes %d, masks and the retained pair hold %d", maxTex, got, want)
		}
	}
}

// phaseCtx cancels itself at its nth Done call. Every phase of a run asks for
// the channel once, on the calling goroutine — AggregateMulti, then per tile
// the scatter and the fold's pool — so n walks a cancellation through the
// phases of a run in order; with async the close races the phase it was asked
// in, which lands it inside the scatter loop rather than in front of it.
type phaseCtx struct {
	context.Context
	n, calls int
	async    bool
	ch       chan struct{}
}

func (c *phaseCtx) Done() <-chan struct{} {
	if c.calls++; c.calls == c.n {
		if c.async {
			go close(c.ch)
		} else {
			close(c.ch)
		}
	}
	return c.ch
}

func (c *phaseCtx) Err() error {
	if canceled(c.ch) {
		return context.Canceled
	}
	return nil
}

// TestBRJJoinerCanceledRunDropsCanvases: a run canceled in front of a tile's
// scatter, inside it, or in front of its fold — the canvases then hold the
// tile's points — returns the context's error and hands no canvases back, so
// the next run starts from clean ones and is right.
func TestBRJJoinerCanceledRunDropsCanvases(t *testing.T) {
	ps, regions, bounds := brjWorkload(40000)
	j, err := NewBRJJoiner(regions, bounds, 64, 600, 0)
	if err != nil {
		t.Fatal(err)
	}
	aggs := []Agg{Count, Sum}
	want, err := j.AggregateMulti(context.Background(), ps, aggs, 2)
	if err != nil {
		t.Fatal(err)
	}
	masks := 8 * int(j.Stats().MaskPixels)
	canceledRuns := 0
	for _, async := range []bool{false, true} {
		for n := 1; ; n++ {
			ctx := &phaseCtx{Context: context.Background(), n: n, async: async, ch: make(chan struct{})}
			got, err := j.AggregateMulti(ctx, ps, aggs, 2)
			if ctx.calls < n {
				sameResults(t, "run that outlasted its cancellation", got, want)
				break
			}
			if err != nil {
				canceledRuns++
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("async=%v n=%d: %v, want context.Canceled", async, n, err)
				}
				if j.MemoryBytes() != masks {
					t.Fatalf("async=%v n=%d: a canceled run handed its canvases back", async, n)
				}
			}
			got, err = j.AggregateMulti(context.Background(), ps, aggs, 2)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, fmt.Sprintf("async=%v: run after cancellation at phase %d", async, n), got, want)
		}
	}
	if canceledRuns < 6 {
		t.Errorf("only %d runs were canceled", canceledRuns)
	}
}

// TestBRJJoinerConcurrentCallersKeepOnePair: concurrent callers never share
// point canvases — run under -race — answer what sequential calls answer, and
// leave at most one pair behind.
func TestBRJJoinerConcurrentCallersKeepOnePair(t *testing.T) {
	ps, regions, bounds := brjWorkload(12000)
	j, err := NewBRJJoiner(regions, bounds, 48, 700, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, aggs := context.Background(), []Agg{Count, Sum}
	sets := make([]PointSet, 6)
	want := make([][]Result, len(sets))
	for g := range sets {
		sets[g] = PointSet{Pts: ps.Pts[g*1500 : g*1500+4000], Weights: ps.Weights[g*1500 : g*1500+4000]}
		if want[g], err = j.AggregateMulti(ctx, sets[g], aggs, 1); err != nil {
			t.Fatal(err)
		}
	}
	onePair := j.MemoryBytes()
	var wg sync.WaitGroup
	for g := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got, err := j.AggregateMulti(ctx, sets[g], aggs, 2)
				if err != nil {
					t.Error(err)
					return
				}
				sameResults(t, fmt.Sprintf("caller %d", g), got, want[g])
			}
		}()
	}
	wg.Wait()
	if j.MemoryBytes() != onePair {
		t.Errorf("MemoryBytes %d after concurrent use, %d with one retained pair", j.MemoryBytes(), onePair)
	}
}
