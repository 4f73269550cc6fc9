package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"distbound"
)

// adhocRequest is op i's request: shape i mod 3 over the op's own slice of
// the point pool.
func adhocRequest(env *runEnv, pts []distbound.Point, ws []float64, s shape, off int) distbound.Request {
	n := env.sc.adhocSlice
	return distbound.Request{
		Points:      distbound.PointSet{Pts: pts[off : off+n], Weights: ws[off : off+n]},
		Aggs:        s.aggs,
		Bound:       s.bound,
		Repetitions: s.reps,
	}
}

// runAdhoc is adhoc_join: the paper's own pipeline. Streaming joins through
// the planner, the ACT trie, the raster canvas and the R*-tree; the
// resident, shard, serve and persist layers are idle. Strategies are not
// forced, so a planner change shows here and nowhere else.
func runAdhoc(env *runEnv) (*report, error) {
	rep := &report{}
	shapes := adhocShapes
	regions, pts, ws := env.sc.dataset(env.seed)
	offs := adhocOffsets(env.sc, env.seed)
	// rss_peak_mb is the whole process's, so say how much of it is the
	// harness's own: the host probe's array and the point pool, before any
	// engine exists.
	debug.FreeOSMemory()
	if own, err := procStatusMB(os.Getpid(), "VmRSS"); err == nil {
		env.printf("  harness footprint before the first engine: %.1f MB of rss_peak_mb\n", own)
	}

	// Set-up: a fresh engine answers every shape once, which builds the
	// R*-tree, the ACT trie and the raster masks. Five times — a second each,
	// short enough to fall wholly inside one host state — minimum reported;
	// the last engine is the one driven.
	var e *distbound.Engine
	setup := math.Inf(1)
	for i := 0; i < 5; i++ {
		// Collect the previous sample's engine first, so the peak RSS does
		// not depend on when the collector happens to run.
		e = nil
		runtime.GC()
		t0 := time.Now()
		e = distbound.NewEngine(regions)
		for si, s := range shapes {
			resp, err := e.Do(env.ctx, adhocRequest(env, pts, ws, s, offs[si]))
			if err != nil {
				return nil, fmt.Errorf("set-up %v: %w", s, err)
			}
			resp.Release()
		}
		s := time.Since(t0).Seconds()
		env.printf("  setup_s sample: %.3f\n", s)
		setup = math.Min(setup, s)
	}
	rep.set("setup_s", setup, "s")

	// Oracle: the ε=0 shape must equal the brute-force join on one slice,
	// and that slice's exact counts anchor count_rel_err for the others.
	ps := distbound.PointSet{Pts: pts[offs[0] : offs[0]+env.sc.adhocSlice]}
	brute, err := distbound.BruteForceJoin(ps, regions, distbound.Count)
	if err != nil {
		return nil, err
	}
	var cerr countErr
	for _, s := range shapes {
		rep.attempted++
		resp, err := e.Do(env.ctx, adhocRequest(env, pts, ws, s, offs[0]))
		if err != nil {
			rep.fail(env, err)
			continue
		}
		got := resp.Results[0].Counts
		if s.bound == 0 {
			for ri := range got {
				if got[ri] != brute.Counts[ri] {
					rep.fail(env, fmt.Errorf("%v region %d: count %d, brute force says %d", s, ri, got[ri], brute.Counts[ri]))
					break
				}
			}
		} else {
			cerr.add(got, brute.Counts)
		}
		resp.Release()
	}
	rep.set("count_rel_err", cerr.ratio(), "ratio")

	// No warm-up pass: set-up answered every shape on this engine, and the
	// fastest sample is indifferent to a cold first op.
	picks := map[string]int{}
	lat := make(shapeSamples, len(shapes))
	weight := make([]int, len(shapes))
	runtime.GC()
	env.host.sample()
	t0 := time.Now()
	for pass := 0; pass < env.sc.passes(wlAdhoc, env.seconds); pass++ {
		for i, off := range offs {
			si := i % len(shapes)
			rep.attempted++
			req := adhocRequest(env, pts, ws, shapes[si], off)
			t := time.Now()
			resp, err := e.Do(env.ctx, req)
			took := ms(time.Since(t))
			if err != nil {
				rep.fail(env, err)
				continue
			}
			lat[si] = append(lat[si], took)
			if pass == 0 {
				picks[fmt.Sprintf("%v -> %v", shapes[si], resp.Strategy)]++
				weight[si]++
			}
			resp.Release()
		}
		env.host.sample()
	}
	wall := time.Since(t0).Seconds()
	for k, n := range picks {
		env.printf("  planner pick: %s (%d ops)\n", k, n)
	}
	for si, xs := range lat {
		if len(xs) == 0 {
			return nil, fmt.Errorf("adhoc_join: no op of shape %v succeeded", shapes[si])
		}
	}
	reportLatency(env, rep, shapes, lat, lat.floors(), weight, "fastest")
	printObserved(env, lat, wall)
	rss, err := procStatusMB(os.Getpid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	rep.set("rss_peak_mb", rss, "MB")
	return rep, nil
}
