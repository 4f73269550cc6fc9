package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"distbound"
	"distbound/internal/data"
	"distbound/internal/serve"
)

// The four workloads. The names are fixed: later issues cite them.
const (
	wlExecuted = "serve_executed"
	wlRepeat   = "serve_repeat"
	wlIngest   = "serve_ingest"
	wlAdhoc    = "adhoc_join"
)

var workloadNames = []string{wlExecuted, wlRepeat, wlIngest, wlAdhoc}

// The three aggregate sets every workload draws from: count-only (one
// integer column), the prefix-sum set, and the set that adds MIN/MAX block
// folds — about 1×, 5× and 12× the count-only work on the resident path.
var (
	aggsCount = []distbound.Agg{distbound.Count}
	aggsSums  = []distbound.Agg{distbound.Count, distbound.Sum, distbound.Avg}
	aggsAll   = []distbound.Agg{distbound.Count, distbound.Sum, distbound.Avg, distbound.Min, distbound.Max}
)

// shape is one query shape: an aggregate set at a distance bound. reps is
// the planner's amortization hint and only matters on the ad-hoc path.
type shape struct {
	aggs  []distbound.Agg
	bound float64
	reps  int
}

// aggName is an aggregate's name on the wire.
func aggName(a distbound.Agg) string { return strings.ToLower(a.String()) }

func (s shape) aggNames() []string {
	names := make([]string, len(s.aggs))
	for i, a := range s.aggs {
		names[i] = aggName(a)
	}
	return names
}

func (s shape) String() string {
	return fmt.Sprintf("{%s}@e%g", strings.Join(s.aggNames(), ","), s.bound)
}

// wire encodes the shape as a /v1/query body.
func (s shape) wire() []byte {
	b, err := json.Marshal(serve.QueryRequest{Aggs: s.aggNames(), Bound: s.bound})
	if err != nil {
		panic(err) // a struct of strings and a finite float always encodes
	}
	return b
}

// scale sizes the common data and the op lists. full is what the gated
// numbers are measured at; tiny exists so the tests can run every workload
// end to end in seconds.
type scale struct {
	name             string
	points           int
	cols, rows       int
	verts            int
	execOps          int // serve_executed ops per client per pass
	repeatOps        int // serve_repeat ops per client per pass
	ingestRows       int // rows per append
	adhocOps         int // adhoc_join ops per pass
	adhocSlice       int // points per ad-hoc request
	passSeconds      map[string]float64
	ingestCycleSecs  float64
	fixedPasses      int // > 0 overrides the seconds-derived pass count
	fixedIngestCycle int
}

var scales = map[string]scale{
	"full": {
		name: "full", points: 1_000_000, cols: 16, rows: 16, verts: 12,
		execOps: 120, repeatOps: 1200, ingestRows: 4096, adhocOps: 210, adhocSlice: 50_000,
		// Wall of one pass (one ingest cycle) on the build host in its quiet
		// state. Pass counts are derived from these and -seconds, so a run
		// replays a fixed number of identical passes instead of looping
		// against a clock: a contended phase then slows the run down but
		// does not change how many samples each shape's fastest is taken
		// over.
		passSeconds:     map[string]float64{wlExecuted: 0.87, wlRepeat: 0.42, wlAdhoc: 3.1},
		ingestCycleSecs: 0.0635,
	},
	"tiny": {
		name: "tiny", points: 20_000, cols: 4, rows: 4, verts: 12,
		execOps: 12, repeatOps: 60, ingestRows: 256, adhocOps: 12, adhocSlice: 2_000,
		fixedPasses: 2, fixedIngestCycle: 12,
	},
}

// passes is how many measured passes of workload wl fit -seconds.
func (sc scale) passes(wl string, seconds float64) int {
	if sc.fixedPasses > 0 {
		return sc.fixedPasses
	}
	return max(2, int(math.Round(seconds/sc.passSeconds[wl])))
}

// ingestCycles is how many append+read cycles fit -seconds.
func (sc scale) ingestCycles(seconds float64) int {
	if sc.fixedIngestCycle > 0 {
		return sc.fixedIngestCycle
	}
	return max(20, int(math.Round(seconds/sc.ingestCycleSecs)))
}

// dataset generates the common data for a seed: the region partition and
// the weighted taxi points — byte-for-byte what `distboundd -seed` builds.
func (sc scale) dataset(seed int64) ([]distbound.Region, []distbound.Point, []float64) {
	regions := data.Regions(data.Partition(seed, sc.cols, sc.rows, sc.verts))
	pts, ws := data.TaxiPoints(seed, sc.points)
	return regions, pts, ws
}

// daemonArgs are the distboundd flags that reproduce dataset(seed).
func (sc scale) daemonArgs(seed int64) []string {
	return []string{
		"-seed", fmt.Sprint(seed), "-points", fmt.Sprint(sc.points),
		"-grid", fmt.Sprintf("%dx%d", sc.cols, sc.rows), "-verts", fmt.Sprint(sc.verts),
		"-weights",
	}
}

// executedShapes: equal thirds put p50 inside the prefix-sum shape and p95
// inside the MIN/MAX shape, so neither quantile sits on a mode edge.
var executedShapes = []shape{
	{aggs: aggsCount, bound: 16},
	{aggs: aggsSums, bound: 4},
	{aggs: aggsAll, bound: 8},
}

// repeatShapes is ε{16,32,64,128} × the three aggregate sets, bound-major.
var repeatShapes = func() []shape {
	var out []shape
	for _, b := range []float64{16, 32, 64, 128} {
		for _, aggs := range [][]distbound.Agg{aggsCount, aggsSums, aggsAll} {
			out = append(out, shape{aggs: aggs, bound: b})
		}
	}
	return out
}()

// ingestShapes are read once each after every append.
var ingestShapes = []shape{
	{aggs: aggsCount, bound: 64},
	{aggs: aggsSums, bound: 16},
	{aggs: aggsAll, bound: 32},
}

// adhocShapes: the exact R*-tree join, a shape the planner is expected to
// answer with the ACT trie, and one it is expected to answer with the
// raster join. The strategies are not forced; the pick is recorded.
var adhocShapes = []shape{
	{aggs: aggsCount, bound: 0, reps: 1},
	{aggs: aggsSums, bound: 16, reps: 1000},
	{aggs: []distbound.Agg{distbound.Count, distbound.Sum}, bound: 64, reps: 1000},
}

// executedOps is client c's op list: round-robin over the shapes, clients
// offset by one shape so the two never run the same shape in lockstep.
func executedOps(sc scale, c int) []int {
	ops := make([]int, sc.execOps)
	for i := range ops {
		ops[i] = (i + c) % len(executedShapes)
	}
	return ops
}

// repeatOps is client c's op list over repeatShapes: the aggregate set
// round-robin, the bound drawn Zipf(1.2) from the seed.
func repeatOps(sc scale, seed int64, c int) []int {
	rng := rand.New(rand.NewSource(seed*31 + int64(c)))
	zipf := rand.NewZipf(rng, 1.2, 1, 3)
	ops := make([]int, sc.repeatOps)
	for i := range ops {
		ops[i] = int(zipf.Uint64())*3 + (i+c)%3
	}
	return ops
}

// appendBody is the /v1/append body of ingest cycle k: taxi-distributed
// weighted rows drawn from a seed no other cycle and no base dataset uses.
func appendBody(sc scale, seed int64, k int) []byte {
	pts, ws := data.TaxiPoints(seed*100_003+int64(k)+1, sc.ingestRows)
	req := serve.AppendRequest{Points: make([][2]float64, len(pts)), Weights: ws}
	for i, p := range pts {
		req.Points[i] = [2]float64{p.X, p.Y}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // finite floats always encode
	}
	return b
}

// adhocOffsets draws the pool offset of every ad-hoc op's point slice.
func adhocOffsets(sc scale, seed int64) []int {
	rng := rand.New(rand.NewSource(seed*17 + 5))
	offs := make([]int, sc.adhocOps)
	for i := range offs {
		offs[i] = rng.Intn(sc.points - sc.adhocSlice + 1)
	}
	return offs
}
