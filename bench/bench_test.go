package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"regexp"
	"testing"

	"distbound"
	"distbound/internal/testutil"
)

func tinyHarness(t *testing.T, trace int) *harness {
	t.Helper()
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	return &harness{
		ctx:       context.Background(),
		opts:      options{seed: 1, seconds: 1, trace: trace, scale: "tiny"},
		sc:        scales["tiny"],
		spec:      spec,
		moduleDir: ".",
		workDir:   t.TempDir(),
	}
}

// TestWorkloadsTiny runs all four workloads end to end at -scale tiny: every
// end-to-end metric BENCHMARK.json names must come out finite with its unit
// (runWorkload enforces that) and no op may fail — the oracle included.
func TestWorkloadsTiny(t *testing.T) {
	h := tinyHarness(t, 0)
	for _, wl := range workloadNames {
		r, err := h.runWorkload(wl)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if r.Failed != 0 || !r.Correct || r.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d, correct %v", wl, r.Attempted, r.Failed, r.Correct)
		}
		if len(r.Metrics) != len(h.spec.EndToEnd) {
			t.Errorf("%s: %d metrics, BENCHMARK.json names %d", wl, len(r.Metrics), len(h.spec.EndToEnd))
		}
	}
}

// TestLayersTiny runs the traced run: every per-layer metric must come out.
func TestLayersTiny(t *testing.T) {
	h := tinyHarness(t, 1)
	r, err := h.runWorkload(wlIngest)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(r.Metrics), len(h.spec.PerLayer); got != want {
		t.Errorf("%d per-layer metrics, BENCHMARK.json names %d", got, want)
	}
}

// TestEpsilonGuaranteeTiny is the check the full-scale oracle cannot afford:
// every bounded answer the workloads ask for must be achievable under the
// brute-force classification — a point is only ever misattributed within ε
// of a region boundary.
func TestEpsilonGuaranteeTiny(t *testing.T) {
	sc := scales["tiny"]
	regions, pts, ws := sc.dataset(1)
	ctx := context.Background()
	classes := map[float64]*testutil.Classification{}
	classify := func(bound float64) *testutil.Classification {
		if classes[bound] == nil {
			classes[bound] = testutil.Classify(pts, ws, regions, bound)
		}
		return classes[bound]
	}
	for name, shapes := range map[string][]shape{wlExecuted: executedShapes, wlRepeat: repeatShapes, wlIngest: ingestShapes} {
		o, err := newOracle(ctx, sc, 1, shapes)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range shapes {
			for k, agg := range s.aggs {
				classify(s.bound).Check(t, fmt.Sprintf("%s %v", name, s), agg, o.want[i][k])
			}
		}
	}

	env := &runEnv{ctx: ctx, sc: sc, seed: 1}
	e := distbound.NewEngine(regions)
	off := adhocOffsets(sc, 1)[0]
	for _, s := range adhocShapes {
		resp, err := e.Do(ctx, adhocRequest(env, pts, ws, s, off))
		if err != nil {
			t.Fatal(err)
		}
		c := testutil.Classify(pts[off:off+sc.adhocSlice], ws[off:off+sc.adhocSlice], regions, s.bound)
		for k, agg := range s.aggs {
			c.Check(t, fmt.Sprintf("adhoc_join %v via %v", s, resp.Strategy), agg, resp.Results[k])
		}
		resp.Release()
	}
}

// TestFloors: a slow host phase that covers most of a run must not move the
// gated latencies; a cost that is in every sample of a shape must, and by
// the shape's share of the op list.
func TestFloors(t *testing.T) {
	const perShape, shapes = 800, 3
	trace := func(slowShare float64, structural bool) shapeSamples {
		lat := make(shapeSamples, shapes)
		for si := range lat {
			for i := 0; i < perShape; i++ {
				v := 1 + float64(si)*4 + 0.002*float64((i*7+si*13)%10) // three modes plus jitter
				if structural && si == 1 {
					v *= 1.5
				}
				if float64(i) < slowShare*perShape {
					v *= 1.7
				}
				lat[si] = append(lat[si], v)
			}
		}
		return lat
	}
	gated := func(lat shapeSamples) (mean, heavy float64) {
		rep := &report{}
		reportLatency(&runEnv{out: io.Discard}, rep, executedShapes, lat, lat.floors(), []int{80, 80, 80}, "fastest")
		return rep.metrics["query_mean_ms"].Value, rep.metrics["query_heavy_ms"].Value
	}
	quietMean, quietHeavy := gated(trace(0, false))
	noisyMean, noisyHeavy := gated(trace(0.95, false)) // 95 % of the run in the slow state
	if math.Abs(noisyMean-quietMean) > 0.01*quietMean || math.Abs(noisyHeavy-quietHeavy) > 0.01*quietHeavy {
		t.Errorf("a slow phase moved the estimate: mean %.4f→%.4f, heavy %.4f→%.4f", quietMean, noisyMean, quietHeavy, noisyHeavy)
	}
	// Shape 1 is 5 of the 15 ms a round of the three shapes takes: half as
	// much again on it is a sixth more on the mean, nothing on the heavy one.
	slowMean, slowHeavy := gated(trace(0, true))
	if want := quietMean * (1 + 0.5*5/15); math.Abs(slowMean-want) > 0.01*want || slowHeavy != quietHeavy {
		t.Errorf("a shape slow in every sample: mean %.4f→%.4f (want %.4f), heavy %.4f→%.4f", quietMean, slowMean, want, quietHeavy, slowHeavy)
	}
	// What a client observed does move under the slow phase, which is why
	// it is printed and not gated.
	if got, quiet := quantile(trace(0.95, false).pooled(), 0.5), quantile(trace(0, false).pooled(), 0.5); got < 1.2*quiet {
		t.Errorf("pooled p50 %.4f should show the slow phase (quiet %.4f): the test trace is too tame", got, quiet)
	}
	// A workload whose ops do not repeat reports medians instead.
	if got := (shapeSamples{{3, 1, 2}, {10, 30}}).medians(); got[0] != 2 || got[1] != 20 {
		t.Errorf("medians = %v, want [2 20]", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestSelfTimes: self time is the span minus what its children cover, with
// overlapping children counted once and grandchildren not at all.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a
		{Name: "c", Start: 60, End: 70, Parent: 0},
		{Name: "a1", Start: 12, End: 20, Parent: 1},
		{Name: "late", Start: 90, End: 120, Parent: 0}, // runs past its parent
	}
	want := []int64{100 - 40 - 10 - 10, 20 - 8, 30, 10, 8, 30}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

func TestHostDisturbed(t *testing.T) {
	h := &hostProbe{chase: []float64{10, 10, 13, 10}, stream: []float64{5, 5, 5, 5}}
	// Sample 2 is slow: the passes before and after it are disturbed.
	if got := h.disturbed(); got != 2 {
		t.Errorf("disturbed = %d, want 2", got)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the driver's contract and to the
// harness: the names it declares are the names the harness knows.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q breaks the naming rule", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, harness runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		use("workload", w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, harness calls it %q", i, w.Name, workloadNames[i])
		}
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use("end-to-end", m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range spec.PerLayer {
		use("per-layer", m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
}
