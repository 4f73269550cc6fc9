package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"distbound/internal/serve"
)

// runEnv is what every workload run shares.
type runEnv struct {
	ctx     context.Context
	sc      scale
	seed    int64
	seconds float64
	bin     string // distboundd binary; empty for in-process workloads
	tmp     string // per-run scratch directory, removed by the caller
	host    *hostProbe
	out     io.Writer // human-readable report lines
}

func (env *runEnv) printf(format string, a ...any) { fmt.Fprintf(env.out, format, a...) }

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload run's outcome.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
}

func (r *report) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records one failed op and says why.
func (r *report) fail(env *runEnv, err error) {
	r.failed++
	if r.failed <= 5 {
		env.printf("  op failed: %v\n", err)
	}
}

// reportLatency sets the two gated latency metrics from one latency per
// shape: query_mean_ms weights each shape by how often the op list asks it,
// query_heavy_ms is the slowest shape's. Every shape's own number is printed
// beside them, not gated: on the executed path the light shapes' moved by
// 20 % and more between runs of the same build.
func reportLatency(env *runEnv, rep *report, shapes []shape, lat shapeSamples, perShape []float64, weight []int, how string) {
	sum, n := 0.0, 0
	for i, v := range perShape {
		sum += v * float64(weight[i])
		n += weight[i]
		env.printf("  %-28s %12.4f ms  (%s of %d samples, weight %d)\n", shapes[i], v, how, len(lat[i]), weight[i])
	}
	rep.set("query_mean_ms", sum/float64(n), "ms")
	rep.set("query_heavy_ms", slices.Max(perShape), "ms")
}

// printObserved prints what a client saw on this host during this run,
// slow phases included: pooled percentiles and wall-clock throughput. They
// moved by 15-60 % between runs of the same build and are not gated.
func printObserved(env *runEnv, lat shapeSamples, wall float64) {
	all := lat.pooled()
	env.printf("  observed, not gated: p50 %.4f ms, p95 %.4f ms, p99 %.4f ms over %d samples; %.1f ops/s over %.2f s of wall\n",
		quantile(all, 0.50), quantile(all, 0.95), quantile(all, 0.99), len(all), float64(len(all))/wall, wall)
}

// maxClients caps the closed-loop clients at min(2, nproc): generator and
// daemon share the host's cores, and a third client would queue on the
// scheduler, not on the program.
func maxClients() int { return min(2, runtime.NumCPU()) }

// bringUp starts one daemon and answers every shape once over a fresh
// connection. setup is process start → last of those answers, in seconds:
// after it cover plans are built and caches filled.
func bringUp(env *runEnv, args []string, shapes []shape) (d *daemon, answers []serve.QueryResponse, setup float64, err error) {
	d, err = startDaemon(env.ctx, env.bin, append(env.sc.daemonArgs(env.seed), args...)...)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(d.url)
	defer c.close()
	for _, s := range shapes {
		if _, err = c.query(s.wire()); err == nil {
			var a serve.QueryResponse
			a, err = c.decodeQuery()
			answers = append(answers, a)
		}
		if err != nil {
			d.stop()
			return nil, nil, 0, fmt.Errorf("set-up query %v: %w\n%s", s, err, d.log.String())
		}
	}
	return d, answers, time.Since(d.started).Seconds(), nil
}

// twoInstances runs a daemon workload on two fresh instances one after the
// other, each timed from process start until it has answered every shape,
// each checked against the oracle, each handed to drive with its set-up
// answers. It sets setup_s (the faster start), rss_peak_mb (the larger peak)
// and count_rel_err; drive measures the rest.
func twoInstances(env *runEnv, rep *report, o *oracle, shapes []shape, args func(i int) []string,
	drive func(i int, d *daemon, answers []serve.QueryResponse) error) error {
	rep.set("count_rel_err", o.countRelErr(), "ratio")
	runtime.GC()
	setup, rss := math.Inf(1), 0.0
	instance := func(i int) error {
		d, answers, s, err := bringUp(env, args(i), shapes)
		if err != nil {
			return err
		}
		defer d.stop()
		env.printf("  setup_s sample: %.3f\n", s)
		setup = math.Min(setup, s)
		for si, a := range answers {
			rep.attempted++
			if err := o.check(si, shapes[si], a); err != nil {
				rep.fail(env, err)
			}
		}
		if err := drive(i, d, answers); err != nil {
			return err
		}
		peak, err := d.rssPeakMB()
		rss = math.Max(rss, peak)
		return err
	}
	for i := 0; i < 2; i++ {
		if err := instance(i); err != nil {
			return err
		}
	}
	rep.set("setup_s", setup, "s")
	rep.set("rss_peak_mb", rss, "MB")
	return nil
}

// replay drives one instance of a repeatable workload: every client replays
// its own fixed op list once per pass, all clients starting together. Every
// answer of the first pass goes through the oracle and is not timed; later
// answers must be 200 with a body, and their latencies are pooled into lat
// by shape. It returns the wall time of the measured passes in seconds.
func replay(env *runEnv, rep *report, d *daemon, o *oracle, shapes []shape, ops [][]int, measured int, lat shapeSamples) (wall float64) {
	bodies := make([][]byte, len(shapes))
	for i, s := range shapes {
		bodies[i] = s.wire()
	}
	clients := make([]*client, len(ops))
	for c := range clients {
		clients[c] = newClient(d.url)
		defer clients[c].close()
	}
	var mu sync.Mutex // guards rep and lat across client goroutines
	// Each of the two instances gets half of -seconds; on a host slow enough
	// to take 2.5x that, stop early rather than run into the driver's limit.
	limit := time.Now().Add(time.Duration(2.5 * env.seconds / 2 * float64(time.Second)))
	env.host.sample()
	for pass := 0; pass <= measured; pass++ {
		if pass > 2 && time.Now().After(limit) {
			env.printf("  stopping after %d measured passes: they are taking 2.5x their share of -seconds\n", pass-1)
			break
		}
		t0 := time.Now()
		var wg sync.WaitGroup
		for c, cl := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				mine := make([]float64, len(ops[c]))
				for i, si := range ops[c] {
					took, err := cl.query(bodies[si])
					if err == nil && pass == 0 {
						var a serve.QueryResponse
						if a, err = cl.decodeQuery(); err == nil {
							err = o.check(si, shapes[si], a)
						}
					}
					if err == nil && cl.buf.Len() == 0 {
						err = fmt.Errorf("%v: empty answer", shapes[si])
					}
					mine[i] = ms(took)
					if err != nil {
						mine[i] = math.NaN()
						mu.Lock()
						rep.fail(env, err)
						mu.Unlock()
					}
				}
				mu.Lock()
				defer mu.Unlock()
				rep.attempted += len(mine)
				for i, v := range mine {
					if pass > 0 && !math.IsNaN(v) {
						lat[ops[c][i]] = append(lat[ops[c][i]], v)
					}
				}
			}()
		}
		wg.Wait()
		if pass > 0 {
			wall += time.Since(t0).Seconds()
		}
		env.host.sample()
	}
	return wall
}

// runReplayed is a daemon workload whose passes are identical: both
// instances are driven, for half the measured passes each. Driving both
// rather than throwing the first away spreads the samples over twice the
// wall time, so a slow phase of the host has to outlast a set-up to cover
// them all. after, when non-nil, inspects each instance once its passes are
// done.
func runReplayed(env *runEnv, wl string, shapes []shape, args []string, ops [][]int, after func(*report, *daemon) error) (*report, error) {
	rep := &report{}
	o, err := newOracle(env.ctx, env.sc, env.seed, shapes)
	if err != nil {
		return nil, err
	}
	passes := env.sc.passes(wl, env.seconds)
	share := []int{passes / 2, passes - passes/2}
	lat := make(shapeSamples, len(shapes))
	wall := 0.0
	err = twoInstances(env, rep, o, shapes, func(int) []string { return args },
		func(i int, d *daemon, _ []serve.QueryResponse) error {
			wall += replay(env, rep, d, o, shapes, ops, share[i], lat)
			if after != nil {
				return after(rep, d)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	weight := make([]int, len(shapes))
	for _, list := range ops {
		for _, si := range list {
			weight[si]++
		}
	}
	for si, xs := range lat {
		if len(xs) == 0 {
			return nil, fmt.Errorf("%s: no op of shape %v succeeded", wl, shapes[si])
		}
	}
	reportLatency(env, rep, shapes, lat, lat.floors(), weight, "fastest")
	printObserved(env, lat, wall)
	return rep, nil
}

// runExecuted is serve_executed: one unsharded engine with the result cache
// off, so every request plans, snapshots and folds. It is the only way to
// reach the executed path over HTTP today: a sharded daemon with
// -result-cache 0 still answers from the per-shard engine caches.
func runExecuted(env *runEnv) (*report, error) {
	ops := make([][]int, maxClients())
	for c := range ops {
		ops[c] = executedOps(env.sc, c)
	}
	args := []string{"-shards", "1", "-result-cache", "0"}
	return runReplayed(env, wlExecuted, executedShapes, args, ops, nil)
}

// runRepeat is serve_repeat: four shards behind the default result cache,
// twelve shapes asked over and over. All hits, zero shards contacted: the
// time is HTTP decode, cache get and JSON encode — serve and cache do all
// the work and the engine layers none, the mirror image of serve_executed.
func runRepeat(env *runEnv) (*report, error) {
	ops := make([][]int, maxClients())
	for c := range ops {
		ops[c] = repeatOps(env.sc, env.seed, c)
	}
	// Over an instance's life only set-up's one request per shape may miss.
	allHits := func(rep *report, d *daemon) error {
		c := newClient(d.url)
		defer c.close()
		st, err := c.stats()
		if err != nil {
			return err
		}
		rc := st.ResultCache
		ratio := float64(rc.Hits) / float64(max(rc.Hits+rc.Misses, 1))
		env.printf("  result cache: %d hits, %d misses (ratio %.4f), %d evictions\n", rc.Hits, rc.Misses, ratio, rc.Evictions)
		rep.attempted++
		if rc.Misses > int64(len(repeatShapes)) {
			rep.fail(env, fmt.Errorf("%d result-cache misses, want at most set-up's %d: the workload is not measuring the hit path", rc.Misses, len(repeatShapes)))
		}
		return nil
	}
	return runReplayed(env, wlRepeat, repeatShapes, []string{"-shards", "4"}, ops, allHits)
}

// runIngest is serve_ingest: writes beside reads on four durable shards.
// One strictly sequential client appends a block of rows and then asks each
// shape once, so every read follows a write, misses both cache layers and
// really scatters to shards on the delta path — and op k is the same op in
// every run, which a concurrent writer thread would not give. Only the
// second instance is driven: the dataset grows as it is, so two instances
// would be two histories, not twice the samples of one.
func runIngest(env *runEnv) (*report, error) {
	rep := &report{}
	shapes := ingestShapes
	o, err := newOracle(env.ctx, env.sc, env.seed, shapes)
	if err != nil {
		return nil, err
	}
	dataDir := func(i int) string { return filepath.Join(env.tmp, fmt.Sprintf("data%d", i)) }
	args := func(i int) []string { return []string{"-shards", "4", "-data", dataDir(i)} }
	err = twoInstances(env, rep, o, shapes, args, func(i int, d *daemon, answers []serve.QueryResponse) error {
		if i == 0 {
			return nil
		}
		return ingest(env, rep, d, dataDir(i), shapes, answers)
	})
	return rep, err
}

// ingest drives the append-then-read cycles against one instance.
func ingest(env *runEnv, rep *report, d *daemon, dataDir string, shapes []shape, answers []serve.QueryResponse) error {
	cycles := env.sc.ingestCycles(env.seconds)
	appends := make([][]byte, cycles)
	for k := range appends {
		appends[k] = appendBody(env.sc, env.seed, k)
	}
	bodies := make([][]byte, len(shapes))
	lastTotal := make([]int64, len(shapes))
	for i, s := range shapes {
		bodies[i] = s.wire()
		lastTotal[i] = total(answers[i].Results[0].Counts)
	}
	c := newClient(d.url)
	defer c.close()
	base, err := c.stats()
	if err != nil {
		return err
	}
	runtime.GC()

	reads := make(shapeSamples, len(shapes))
	var appendLat []float64
	appended := 0
	env.host.sample()
	t0 := time.Now()
	for k := 0; k < cycles; k++ {
		rep.attempted++
		took, n, err := c.appendRows(appends[k])
		if err == nil && n != env.sc.ingestRows {
			err = fmt.Errorf("append %d acknowledged %d rows, want %d", k, n, env.sc.ingestRows)
		}
		if err != nil {
			rep.fail(env, err)
		} else {
			appendLat = append(appendLat, ms(took))
			appended += n
		}
		for i := range shapes {
			rep.attempted++
			took, err := c.query(bodies[i])
			if err == nil {
				var a serve.QueryResponse
				if a, err = c.decodeQuery(); err == nil {
					// Appends only add rows, so a shape's total COUNT can
					// never go down between cycles.
					if t := total(a.Results[0].Counts); t < lastTotal[i] {
						err = fmt.Errorf("%v cycle %d: total count fell from %d to %d", shapes[i], k, lastTotal[i], t)
					} else {
						lastTotal[i] = t
					}
				}
			}
			if err != nil {
				rep.fail(env, err)
				continue
			}
			reads[i] = append(reads[i], ms(took))
		}
		if (k+1)%10 == 0 {
			env.host.sample()
		}
	}
	wall := time.Since(t0).Seconds()
	env.host.sample()

	end, err := c.stats()
	if err != nil {
		return err
	}
	rep.attempted++
	if end.Live != base.Live+appended {
		rep.fail(env, fmt.Errorf("/v1/stats live %d, want base %d + appended %d", end.Live, base.Live, appended))
	}
	var compactions uint64
	for i, sh := range end.Shards {
		compactions += sh.Generation - base.Shards[i].Generation
	}
	for si, xs := range reads {
		if len(xs) == 0 {
			return fmt.Errorf("serve_ingest: no read of shape %v succeeded", shapes[si])
		}
	}
	if len(appendLat) == 0 {
		return fmt.Errorf("serve_ingest: no append succeeded")
	}
	disk, err := dirBytes(dataDir)
	if err != nil {
		return err
	}

	// A read's latency depends on how much delta has piled up since the last
	// compaction, so the samples of a shape are different ops and the
	// differences are the workload: the median, not the fastest.
	weight := make([]int, len(shapes))
	for i := range weight {
		weight[i] = 1
	}
	reportLatency(env, rep, shapes, reads, reads.medians(), weight, "median")
	printObserved(env, reads, wall)
	app := sortedCopy(appendLat)
	env.printf("  %d appends of %d rows, appends are in the wall above\n", len(app), env.sc.ingestRows)
	env.printf("  %-28s %12.4f ms\n", "ingest.append_p50_ms", quantile(app, 0.50))
	env.printf("  %-28s %12.4f ms\n", "ingest.append_p95_ms", quantile(app, 0.95))
	env.printf("  %-28s %12.4f ms\n", "ingest.append_max_ms", app[len(app)-1])
	env.printf("  %-28s %12d count\n", "ingest.compactions", compactions)
	env.printf("  %-28s %12.4f B\n", "ingest.disk_bytes_per_row", float64(disk)/float64(end.Live))
	return nil
}

func total(counts []int64) int64 {
	var t int64
	for _, c := range counts {
		t += c
	}
	return t
}
