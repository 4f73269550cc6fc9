// Command bench is the repository's benchmark: four workloads over the
// serving daemon and the library, five end-to-end metrics, and a per-layer
// trace measured from outside the program. See README.md in this directory
// for the workloads, the estimators and why each was chosen.
//
// The driver's entry point is bench/run.sh, which builds this package and
// runs it as
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// printing one JSON object as the last line of standard output. Without
// --workload every workload runs in turn, each in a child process.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// benchSpec is the part of BENCHMARK.json the harness reads back: metric
// names with their units and bounds.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// findRoot returns the directory holding BENCHMARK.json: the working
// directory (how run.sh starts the harness) or its parent (`go run .` from
// inside bench/).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}

func loadSpec(root string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// options are the harness flags.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	scale     string
	keepGoing bool
	selfcheck bool
	fitBounds int
}

// outcome is the driver-facing result of one workload run.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload: serve_executed, serve_repeat, serve_ingest or adhoc_join (default: all four)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the dataset and of every op list")
	flag.Float64Var(&o.seconds, "seconds", 0, "how long each workload's measured phase lasts on the build host; pass counts are derived from it (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the per-layer trace instead of the end-to-end run")
	flag.StringVar(&o.scale, "scale", "full", "full (the gated numbers) or tiny (seconds; what the tests run)")
	flag.BoolVar(&o.keepGoing, "keep-going", false, "exit 0 even when ops failed")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the whole benchmark twice and fail if any end-to-end metric differs by more than its bound")
	flag.IntVar(&o.fitBounds, "fit-bounds", 0, "run the whole benchmark `N` times and print a fitted bound per end-to-end metric")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errOpsFailed makes the harness exit non-zero after it has printed its
// result.
var errOpsFailed = errors.New("ops failed (rerun with -keep-going to exit 0 anyway)")

func run(ctx context.Context, o options) error {
	sc, ok := scales[o.scale]
	if !ok {
		return fmt.Errorf("unknown -scale %q: want full or tiny", o.scale)
	}
	if o.workload != "" && !slices.Contains(workloadNames, o.workload) {
		return fmt.Errorf("unknown -workload %q: want one of %v", o.workload, workloadNames)
	}
	if o.trace == 1 && o.workload == "" {
		o.workload = workloadNames[0] // the traced run is the same whichever workload is named
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if o.seconds == 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if !(o.seconds > 0) {
		return fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	h := &harness{ctx: ctx, opts: o, sc: sc, spec: spec,
		moduleDir: filepath.Join(root, "bench"),
		workDir:   filepath.Join(root, ".bench_build"),
	}
	if err := os.MkdirAll(h.workDir, 0o755); err != nil {
		return err
	}

	var last []byte
	failed := 0
	switch {
	case o.selfcheck:
		return h.selfcheck()
	case o.fitBounds > 0:
		return h.fitBounds(o.fitBounds)
	case o.workload == "":
		results, err := h.runAll()
		if err != nil {
			return err
		}
		for _, r := range results {
			failed += r.Failed
		}
		last, err = json.Marshal(results)
		if err != nil {
			return err
		}
	default:
		hb, _ := json.Marshal(describeHost(o.seed, sc.name))
		fmt.Printf("host %s\n", hb)
		r, err := h.runWorkload(o.workload)
		if err != nil {
			return fmt.Errorf("%s: %w", o.workload, err)
		}
		failed = r.Failed
		last, err = json.Marshal(r)
		if err != nil {
			return err
		}
	}
	fmt.Printf("%s\n", last)
	if failed > 0 && !o.keepGoing {
		return errOpsFailed
	}
	return nil
}

// workloadRuns maps each workload to its end-to-end run.
var workloadRuns = map[string]func(*runEnv) (*report, error){
	wlExecuted: runExecuted, wlRepeat: runRepeat, wlIngest: runIngest, wlAdhoc: runAdhoc,
}

// harness carries what one invocation needs.
type harness struct {
	ctx       context.Context
	opts      options
	sc        scale
	spec      benchSpec
	moduleDir string
	workDir   string
	// Made on first need and kept, for the tests, which run every workload
	// in one process.
	host *hostProbe
	bin  string // distboundd
}

// runAll runs every workload once, each in a child process of its own —
// the harness re-executed with --workload, which is how the driver runs it.
// A workload then measures the same thing (its process's peak RSS included)
// whether it runs alone, with the others, or under -selfcheck.
func (h *harness) runAll() (map[string]outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := map[string]outcome{}
	for _, name := range workloadNames {
		args := []string{"--workload", name, "--seed", fmt.Sprint(h.opts.seed), "--seconds", fmt.Sprint(h.opts.seconds),
			"--trace", fmt.Sprint(h.opts.trace), "--scale", h.sc.name}
		if h.opts.keepGoing {
			args = append(args, "--keep-going")
		}
		var stdout bytes.Buffer
		cmd := exec.CommandContext(h.ctx, self, args...)
		cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &stdout), os.Stderr
		// Interrupted, the child gets the signal this process got and the
		// time to drain its daemon and remove its scratch directory.
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.WaitDelay = 20 * time.Second
		runErr := cmd.Run()
		// The result is the last line; a child whose ops failed prints it
		// and then exits non-zero.
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var r outcome
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil || r.Attempted == 0 {
			return nil, fmt.Errorf("%s: no result from the child process: %v", name, runErr)
		}
		out[name] = r
	}
	return out, nil
}

// runWorkload runs one workload in this process — end to end, or traced —
// in its own scratch directory, which is removed on every exit path. It
// prints every metric by name and unit.
func (h *harness) runWorkload(name string) (outcome, error) {
	fmt.Printf("workload %s (trace %d, seed %d, scale %s)\n", name, h.opts.trace, h.opts.seed, h.sc.name)
	tmp, err := os.MkdirTemp(h.workDir, "run-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(tmp)
	if h.host == nil {
		h.host = newHostProbe()
	}
	host := h.host
	host.chase, host.stream = nil, nil
	env := &runEnv{ctx: h.ctx, sc: h.sc, seed: h.opts.seed, seconds: h.opts.seconds, tmp: tmp, host: host, out: os.Stdout}

	run, want := workloadRuns[name], h.spec.EndToEnd
	switch {
	case h.opts.trace == 1:
		run, want = runLayers, h.spec.PerLayer
	case name != wlAdhoc:
		if h.bin == "" {
			if h.bin, err = buildDaemon(h.ctx, h.moduleDir, filepath.Join(h.workDir, "bin")); err != nil {
				return outcome{}, err
			}
		}
		env.bin = h.bin
	}
	rep, err := run(env)
	if err != nil {
		return outcome{}, err
	}
	if len(host.chase) > 0 && h.opts.trace == 0 {
		fmt.Printf("  host: chase %.2f/%.2f ms, stream %.2f/%.2f ms (min/median of %d samples), %d disturbed passes\n",
			slices.Min(host.chase), median(host.chase), slices.Min(host.stream), median(host.stream),
			len(host.chase), host.disturbed())
	}
	if err := checkMetrics(rep, want); err != nil {
		return outcome{}, err
	}
	fmt.Printf("  %-28s %12d count\n", "ops_attempted", rep.attempted)
	fmt.Printf("  %-28s %12d count\n", "ops_failed", rep.failed)
	for _, m := range want {
		v := rep.metrics[m.Name]
		fmt.Printf("  %-28s %12.4f %s\n", m.Name, v.Value, v.Unit)
	}
	return outcome{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}, nil
}

// checkMetrics rejects a report that misses a declared metric, carries a
// non-finite value or the wrong unit, and drops what is not declared: the
// last line holds exactly the metrics BENCHMARK.json names.
func checkMetrics(rep *report, want []specMetric) error {
	declared := map[string]metric{}
	for _, m := range want {
		got, ok := rep.metrics[m.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", m.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return fmt.Errorf("metric %s is %v", m.Name, got.Value)
		case got.Unit != m.Unit:
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
		declared[m.Name] = got
	}
	rep.metrics = declared
	return nil
}

// fullRun is one run of every workload, flattened to "workload/metric".
func (h *harness) fullRun() (map[string]float64, error) {
	results, err := h.runAll()
	if err != nil {
		return nil, err
	}
	flat := map[string]float64{}
	for wl, r := range results {
		if r.Failed > 0 && !h.opts.keepGoing {
			return nil, fmt.Errorf("%s: %w", wl, errOpsFailed)
		}
		for name, m := range r.Metrics {
			flat[wl+"/"+name] = m.Value
		}
	}
	return flat, nil
}

func (h *harness) bound(pair string) float64 {
	_, name, _ := strings.Cut(pair, "/")
	for _, m := range h.spec.EndToEnd {
		if name == m.Name {
			return m.Bound
		}
	}
	return 0
}

// selfcheck runs the whole benchmark twice back to back on the same build
// and fails if any (workload, metric) pair moved by more than its bound.
func (h *harness) selfcheck() error {
	a, err := h.fullRun()
	if err != nil {
		return err
	}
	b, err := h.fullRun()
	if err != nil {
		return err
	}
	fmt.Printf("\n%-36s %14s %14s %8s %8s\n", "selfcheck", "first", "second", "moved", "bound")
	bad := 0
	for _, pair := range sortedKeys(a) {
		moved := math.Abs(a[pair]-b[pair]) / math.Min(a[pair], b[pair])
		mark := ""
		if moved > h.bound(pair) {
			mark = "  FAIL"
			bad++
		}
		fmt.Printf("%-36s %14.4f %14.4f %8.4f %8.2f%s\n", pair, a[pair], b[pair], moved, h.bound(pair), mark)
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) moved by more than their bound between two runs of the same build", bad)
	}
	return nil
}

// fitBounds runs the whole benchmark n times and prints, per pair, the
// median, the range and the bound that range suggests.
func (h *harness) fitBounds(n int) error {
	runs := map[string][]float64{}
	for i := 0; i < n; i++ {
		r, err := h.fullRun()
		if err != nil {
			return err
		}
		for k, v := range r {
			runs[k] = append(runs[k], v)
		}
	}
	fmt.Printf("\n%-36s %14s %14s %14s %10s\n", fmt.Sprintf("fit-bounds over %d runs", n), "median", "min", "max", "suggested")
	for _, pair := range sortedKeys(runs) {
		vs := sortedCopy(runs[pair])
		med := median(vs)
		fmt.Printf("%-36s %14.4f %14.4f %14.4f %10.3f\n", pair, med, vs[0], vs[len(vs)-1],
			math.Max(0.05, 2*(vs[len(vs)-1]-vs[0])/med))
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }
