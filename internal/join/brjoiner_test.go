package join

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"distbound/internal/canvas"
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
			got, err := aggregateAt(j, ps, agg, 1)
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
	a, err := aggregateAt(big, ps, Count, 1)
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
	want, err := aggregateAt(j, ps, Count, 1)
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
	if _, err := aggregateAt(j, ps, Min, 1); err == nil {
		t.Error("MIN accepted by raster join")
	}
	if _, err := NewBRJJoiner(regions, bounds, 0, 0, 0); err == nil {
		t.Error("zero bound accepted")
	}
}

// TestBRJJoinerRejectsOversizedTiles: a tile's pixel keys are 24 bits, so
// the cached join refuses a texture cap above the default 4096.
func TestBRJJoinerRejectsOversizedTiles(t *testing.T) {
	_, regions, bounds := brjWorkload(0)
	if _, err := NewBRJJoiner(regions, bounds, 64, canvas.DefaultMaxTextureSize+1, 0); err == nil {
		t.Error("a 4097-pixel texture cap accepted")
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

// TestBRJJoinerRetainedCanvasesStayClean: the point buffers outlive a call,
// so every call on a used joiner must answer what a fresh joiner answers —
// over disjoint, overlapping and empty point sets, and with a count-only run
// after a summing one (the per-pixel weight sums are retained too, and must
// not be read). One set stays behind, and MemoryBytes counts it.
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
			t.Fatalf("maxTex=%d: no point buffers retained", maxTex)
		}
		if got, want := used.MemoryBytes(), used.maskBytes+sc.bytes(); got != want || sc.bytes() <= 0 {
			t.Errorf("maxTex=%d: MemoryBytes %d, masks and the retained buffers hold %d", maxTex, got, want)
		}
	}
}

// phaseCtx cancels itself at its nth Done call. Every phase of a run asks for
// the channel once, on the calling goroutine — AggregateMulti, the keying of
// the points, then per tile the fold's pool — so n walks a cancellation
// through the phases of a run in order; with async the close races the phase
// it was asked in, which lands it inside the keying loop rather than in front
// of it.
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

// TestBRJJoinerCanceledRunDropsCanvases: a run canceled in front of the
// keying, inside it, or in front of a tile's fold — the buffers then hold the
// points — returns the context's error and hands no buffers back, so the next
// run starts from clean ones and is right.
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
	masks := j.maskBytes
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
					t.Fatalf("async=%v n=%d: a canceled run handed its buffers back", async, n)
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
// point buffers — run under -race — answer what sequential calls answer, and
// leave one set behind: more than the masks, less than the masks and two of
// the smallest set a caller's points grow.
func TestBRJJoinerConcurrentCallersKeepOnePair(t *testing.T) {
	ps, regions, bounds := brjWorkload(12000)
	j, err := NewBRJJoiner(regions, bounds, 48, 700, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, aggs := context.Background(), []Agg{Count, Sum}
	sets := make([]PointSet, 6)
	want := make([][]Result, len(sets))
	oneSet := math.MaxInt
	for g := range sets {
		sets[g] = PointSet{Pts: ps.Pts[g*1500 : g*1500+4000], Weights: ps.Weights[g*1500 : g*1500+4000]}
		j.scratch.Store(nil)
		if want[g], err = j.AggregateMulti(ctx, sets[g], aggs, 1); err != nil {
			t.Fatal(err)
		}
		oneSet = min(oneSet, j.scratch.Load().bytes())
	}
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
	if got := j.MemoryBytes() - j.maskBytes; got <= 0 || got >= 2*oneSet {
		t.Errorf("%d bytes retained after concurrent use, one set holds %d", got, oneSet)
	}
}

// brjEdgeCases builds n points over bounds for the raster join at bound from
// seed: uniform points over an extent 10 % wider than bounds (so some fall
// outside), a crowd in one pixel, points on pixel edges, corners and tile
// seams (a 200-pixel texture cap) and one ulp either side, and on the
// extent's far edge. Weights are fractional, of both signs, and sometimes −0.
func brjEdgeCases(seed int64, n int, bounds geom.Rect, bound float64) PointSet {
	rng := rand.New(rand.NewSource(seed))
	g := canvas.GridForBound(bounds.Min, bound)
	w, h := bounds.Max.X-bounds.Min.X, bounds.Max.Y-bounds.Min.Y
	cells := int(w / g.PixelSize)
	line := func(k int) float64 { return g.Origin.X + float64(k)*g.PixelSize }
	nudge := func(x float64) float64 {
		switch rng.Intn(3) {
		case 0:
			return math.Nextafter(x, math.Inf(-1))
		case 1:
			return math.Nextafter(x, math.Inf(1))
		}
		return x
	}
	crowd := g.PixelCenter(rng.Intn(cells), rng.Intn(cells))
	ps := PointSet{Pts: make([]geom.Point, n), Weights: make([]float64, n)}
	for i := range ps.Pts {
		var p geom.Point
		switch i % 6 {
		case 0:
			p = geom.Pt(bounds.Min.X-0.05*w+1.1*w*rng.Float64(), bounds.Min.Y-0.05*h+1.1*h*rng.Float64())
		case 1:
			p = geom.Pt(crowd.X+(rng.Float64()-0.5)*g.PixelSize*0.9, crowd.Y+(rng.Float64()-0.5)*g.PixelSize*0.9)
		case 2:
			p = geom.Pt(nudge(line(rng.Intn(cells))), bounds.Min.Y+h*rng.Float64())
		case 3:
			p = geom.Pt(nudge(line(rng.Intn(cells))), nudge(line(rng.Intn(cells))))
		case 4:
			p = geom.Pt(nudge(line(200*rng.Intn(cells/200+1))), nudge(line(200*rng.Intn(cells/200+1))))
		default:
			p = geom.Pt(nudge(bounds.Max.X), bounds.Min.Y+h*rng.Float64())
		}
		ps.Pts[i] = p
		switch ps.Weights[i] = (rng.Float64() - 0.3) * 1000; {
		case i%17 == 0:
			ps.Weights[i] = math.Copysign(0, -1)
		case i%13 == 0:
			ps.Weights[i] = math.Round(ps.Weights[i])
		}
	}
	return ps
}

// FuzzBRJJoinerMatchesRun holds the cached joiner's sparse fold to the
// one-shot BRJ.Run it replaces, by IEEE bits: count-only and count+sum sets,
// one tile and a 200-pixel texture cap whose seams the regions straddle, one
// worker and three, over brjEdgeCases' points — an empty set included.
func FuzzBRJJoinerMatchesRun(f *testing.F) {
	bounds := data.DowntownBounds()
	regions := data.Regions(data.PartitionIn(10, bounds, 5, 5, 6))
	const bound = 32
	joiners := map[int]*BRJJoiner{}
	for _, maxTex := range []int{0, 200} {
		j, err := NewBRJJoiner(regions, bounds, bound, maxTex, 0)
		if err != nil {
			f.Fatal(err)
		}
		joiners[maxTex] = j
	}
	if joiners[200].Stats().NumTiles < 9 {
		f.Fatalf("%d tiles under the 200-pixel cap, want at least 9", joiners[200].Stats().NumTiles)
	}
	f.Add(int64(1), uint16(3000))
	f.Add(int64(2), uint16(0))
	f.Add(int64(3), uint16(1))
	f.Add(int64(4), uint16(600))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		ps := brjEdgeCases(seed, int(n%4096), bounds, bound)
		ctx := context.Background()
		for maxTex, j := range joiners {
			want := map[Agg]Result{}
			for _, agg := range []Agg{Count, Sum} {
				r, _, err := BRJ{Bound: bound, Bounds: bounds, MaxTextureSize: maxTex}.Run(ps, regions, agg)
				if err != nil {
					t.Fatal(err)
				}
				want[agg] = r
			}
			for _, aggs := range [][]Agg{{Count}, {Count, Sum}} {
				for _, workers := range []int{1, 3} {
					got, err := j.AggregateMulti(ctx, ps, aggs, workers)
					if err != nil {
						t.Fatal(err)
					}
					for k, agg := range aggs {
						bitIdentical(t, fmt.Sprintf("seed %d n %d maxTex %d %v workers %d: %v", seed, n, maxTex, aggs, workers, agg), want[agg], got[k])
					}
				}
			}
		}
	})
}
