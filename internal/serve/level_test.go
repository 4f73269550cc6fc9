package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"distbound"
	"distbound/internal/data"
	"distbound/internal/join"
	"distbound/internal/shard"
	"distbound/internal/testutil"
)

// sameLevelBounds is 2^k × {1.9, 1.8, …, 1.0} for k = 9…1, descending: ten
// bounds an octave, so every level's bounds are asked for back to back, and
// coarse-first, so no ready level is finer than the next one asked for.
func sameLevelBounds() []float64 {
	var out []float64
	for k := 9; k >= 1; k-- {
		for _, m := range []float64{1.9, 1.8, 1.7, 1.6, 1.5, 1.4, 1.3, 1.2, 1.1, 1.0} {
			out = append(out, math.Ldexp(m, k))
		}
	}
	return out
}

// levelAnswer is one answer as the level tests compare it: the served bound,
// and per aggregate its per-region counts and values.
type levelAnswer struct {
	served float64
	counts [][]int64
	values [][]float64
}

// bits flattens the answer's counts and value bits, for identity checks.
func (a levelAnswer) bits() []uint64 {
	var out []uint64
	for k := range a.counts {
		for ri := range a.counts[k] {
			out = append(out, uint64(a.counts[k][ri]), math.Float64bits(a.values[k][ri]))
		}
	}
	return out
}

// nested returns the answer's results for aggs, each with its served bound.
func (a levelAnswer) nested(t *testing.T, aggs []string) []testutil.Served {
	parsed, err := ParseAggs(aggs)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]testutil.Served, len(parsed))
	for k, agg := range parsed {
		r := join.Result{Agg: agg, Counts: a.counts[k]}
		switch agg {
		case distbound.Sum:
			r.Sums = a.values[k]
		case distbound.Min, distbound.Max:
			r.Extremes = a.values[k]
		}
		out[k] = testutil.Served{Bound: a.served, Result: r}
	}
	return out
}

// levelScenario is one dataset the level tests ask: how to open it, and the
// oracle over the live relation it holds.
type levelScenario struct {
	name   string
	open   func(t *testing.T) *shard.Sharded
	oracle *levelOracle
}

// levelScenarios returns a static, a mutated (append + delete) and a
// reopened partition of one 4 km city — small enough that the finest level
// (ε = 2 m) is a cheap build — over its regions. Each open is a fresh
// partition, so its epoch is fixed throughout a run that only reads.
func levelScenarios(t *testing.T) ([]distbound.Region, []levelScenario) {
	ext := distbound.Rect{Max: distbound.Point{X: 4000, Y: 4000}}
	regions := data.Regions(data.PartitionIn(7, ext, 3, 3, 8))
	pts, _ := data.TaxiPointsIn(8, 3000, ext)
	ws := testutil.ExactWeights(rand.New(rand.NewSource(9)), len(pts))
	extra, _ := data.TaxiPointsIn(10, 300, ext)
	extraWs := testutil.ExactWeights(rand.New(rand.NewSource(11)), len(extra))
	build := func(t *testing.T, mutate bool) *shard.Sharded {
		s, ids, err := shard.New("taxi", regions, pts, ws, 3)
		if err != nil {
			t.Fatal(err)
		}
		if mutate {
			if _, err := s.Append(extra, extraWs); err != nil {
				t.Fatal(err)
			}
			if n, err := s.Delete(ids[:100]...); n != 100 || err != nil {
				t.Fatalf("Delete = (%d, %v), want 100 live rows deleted", n, err)
			}
		}
		return s
	}
	dir := t.TempDir()
	persisted := build(t, true)
	if err := persisted.Persist(dir, distbound.PersistConfig{}); err != nil {
		t.Fatal(err)
	}
	persisted.Close()
	// The mutated relation: the first 100 points deleted, the extra appended.
	mutated := newLevelOracle(regions,
		append(slices.Clone(pts[100:]), extra...), append(slices.Clone(ws[100:]), extraWs...))
	return regions, []levelScenario{
		{"static", func(t *testing.T) *shard.Sharded { return build(t, false) }, newLevelOracle(regions, pts, ws)},
		{"mutated", func(t *testing.T) *shard.Sharded { return build(t, true) }, mutated},
		{"reopened", func(t *testing.T) *shard.Sharded {
			s, err := shard.Open(regions, dir, distbound.PersistConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, mutated},
	}
}

// levelClient asks one scenario's partition, in process or over HTTP:
// query answers one request, stats reads the cover builds and result-cache
// misses.
type levelClient struct {
	query func(aggs []string, bound float64) levelAnswer
	stats func() (builds, misses int64)
}

// eachLevelClient runs fn on every scenario, in process and over HTTP.
func eachLevelClient(t *testing.T, scenarios []levelScenario, fn func(t *testing.T, sc levelScenario, c levelClient)) {
	for _, sc := range scenarios {
		t.Run(sc.name+"/in-process", func(t *testing.T) {
			s := sc.open(t)
			defer s.Close()
			fn(t, sc, levelClient{
				query: func(aggs []string, bound float64) levelAnswer {
					req, err := toShardRequest(QueryRequest{Aggs: aggs, Bound: bound})
					if err != nil {
						t.Fatal(err)
					}
					resp, err := s.Do(context.Background(), req)
					if err != nil {
						t.Fatal(err)
					}
					a := levelAnswer{served: resp.ServedBound}
					for _, r := range resp.Results {
						vals := make([]float64, len(r.Counts))
						for ri := range vals {
							vals[ri] = r.Value(ri)
						}
						a.counts = append(a.counts, r.Counts)
						a.values = append(a.values, vals)
					}
					return a
				},
				stats: func() (int64, int64) {
					st := s.Stats()
					return st.Covers.Builds, st.ResultCache.Misses
				},
			})
		})
		t.Run(sc.name+"/http", func(t *testing.T) {
			srv := NewServer(&ShardedBackend{S: sc.open(t)}, 0)
			ts := httptest.NewServer(srv.Handler())
			defer srv.Close()
			defer ts.Close()
			fn(t, sc, levelClient{
				query: func(aggs []string, bound float64) levelAnswer {
					resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Aggs: aggs, Bound: bound}, nil)
					var q QueryResponse
					if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &q) != nil {
						t.Fatalf("bound %g: %d %s", bound, resp.StatusCode, body)
					}
					a := levelAnswer{served: q.ServedBound}
					for _, r := range q.Results {
						a.counts = append(a.counts, r.Counts)
						a.values = append(a.values, r.Values)
					}
					return a
				},
				stats: func() (int64, int64) {
					_, body := getBody(t, ts.URL+"/v1/stats")
					var st StatsResponse
					if err := json.Unmarshal(body, &st); err != nil {
						t.Fatal(err)
					}
					return st.Covers.Builds, st.ResultCache.Misses
				},
			})
		})
	}
}

// levelAggSets are the aggregate sets every level test asks at each bound.
var levelAggSets = [][]string{{"count", "sum", "avg", "min", "max"}, {"count"}}

// levelOracle holds an answer to the paper's contract and to the reference
// join over one live relation: Classify at the requested bound, and
// ACTJoiner — the streaming cell-lookup join — at the served bound,
// Float64bits-identical (the weights are exact, so no summation order
// differs). The geometry is measured once, and each reference answer is
// computed once per (served bound, aggregate).
type levelOracle struct {
	regions []distbound.Region
	ps      join.PointSet
	cl      *testutil.Classifier
	acts    map[float64]*join.ACTJoiner
	want    map[levelKey]join.Result
}

type levelKey struct {
	served float64
	agg    distbound.Agg
}

func newLevelOracle(regions []distbound.Region, pts []distbound.Point, ws []float64) *levelOracle {
	return &levelOracle{
		regions: regions,
		ps:      join.PointSet{Pts: pts, Weights: ws},
		cl:      testutil.NewClassifier(pts, ws, regions),
		acts:    map[float64]*join.ACTJoiner{},
		want:    map[levelKey]join.Result{},
	}
}

// reference returns ACTJoiner's answer for agg at the served bound.
func (o *levelOracle) reference(t *testing.T, served float64, agg distbound.Agg) join.Result {
	key := levelKey{served, agg}
	if r, ok := o.want[key]; ok {
		return r
	}
	act, ok := o.acts[served]
	if !ok {
		var err error
		act, err = join.NewACTJoiner(o.regions, distbound.DomainForRegions(o.regions...), distbound.Hilbert, served, 0)
		if err != nil {
			t.Fatal(err)
		}
		o.acts[served] = act
	}
	r, err := act.Aggregate(o.ps, agg)
	if err != nil {
		t.Fatal(err)
	}
	o.want[key] = r
	return r
}

func (o *levelOracle) check(t *testing.T, aggs []string, bound float64, a levelAnswer) {
	t.Helper()
	if !(a.served > 0 && a.served <= bound) {
		t.Fatalf("bound %g: served_bound %g, want in (0, %g]", bound, a.served, bound)
	}
	c := o.cl.At(bound)
	for k, s := range a.nested(t, aggs) {
		agg, got := s.Result.Agg, s.Result
		label := fmt.Sprintf("bound %g served at %g %v", bound, a.served, agg)
		if agg != distbound.Avg { // AVG is SUM over COUNT, both checked
			c.Check(t, label, agg, got)
		}
		want := o.reference(t, a.served, agg)
		for ri := range want.Counts {
			if a.counts[k][ri] != want.Counts[ri] || math.Float64bits(a.values[k][ri]) != math.Float64bits(want.Value(ri)) {
				t.Fatalf("%s region %d: (%d, %v), ACTJoiner at the served bound (%d, %v)",
					label, ri, a.counts[k][ri], a.values[k][ri], want.Counts[ri], want.Value(ri))
			}
		}
	}
}

// TestBoundsOfOneLevelShareCoverAndAnswer: a bound names a cover level, and
// both caches key on the level that serves it, so the 90 bounds of
// sameLevelBounds, asked coarse-first, cost one cover build per level and one
// result-cache miss per (epoch, aggregate set, level); every answer is served
// at its bound's own level and is bit-identical to the first answer there —
// on a static, a mutated (append + delete) and a reopened dataset, in process
// and over HTTP. Every answer also meets the contract at its bound and equals
// ACTJoiner at the bound it was served at.
func TestBoundsOfOneLevelShareCoverAndAnswer(t *testing.T) {
	regions, scenarios := levelScenarios(t)
	dom := distbound.DomainForRegions(regions...)
	eachLevelClient(t, scenarios, func(t *testing.T, sc levelScenario, c levelClient) {
		o := sc.oracle
		builds0, misses0 := c.stats()
		first := map[[2]int][]uint64{}
		levels := map[int]bool{}
		var nested []testutil.Served
		for _, b := range sameLevelBounds() {
			level := dom.LevelForBound(b)
			levels[level] = true
			for si, aggs := range levelAggSets {
				a := c.query(aggs, b)
				if a.served != dom.CellDiagonal(level) {
					t.Fatalf("bound %g %v: served at %g m, want its own level's %g m", b, aggs, a.served, dom.CellDiagonal(level))
				}
				o.check(t, aggs, b, a)
				key := [2]int{level, si}
				if want, ok := first[key]; !ok {
					first[key] = a.bits()
					nested = append(nested, a.nested(t, aggs)...)
				} else if !slices.Equal(a.bits(), want) {
					t.Errorf("bound %g %v: the answer differs from the first at level %d", b, aggs, level)
				}
			}
			builds, misses := c.stats()
			if builds-builds0 != int64(len(levels)) || misses-misses0 != int64(len(levels)*len(levelAggSets)) {
				t.Fatalf("after bound %g: %d cover builds and %d result-cache misses for %d levels × %d aggregate sets, want one build a level and one miss a (level, set)",
					b, builds-builds0, misses-misses0, len(levels), len(levelAggSets))
			}
		}
		if len(levels) < 9 {
			t.Fatalf("the bounds fell on %d levels, want at least 9", len(levels))
		}
		testutil.CheckNested(t, "one level a bound", nested)
		var matched uint64
		for i, v := range first[[2]int{dom.LevelForBound(2), 1}] {
			if i%2 == 0 {
				matched += v
			}
		}
		if matched == 0 {
			t.Fatal("the finest level's COUNT matched no point")
		}
	})
}

// TestFinerLevelServesCoarserBounds: a level is a floor. Asked fine-to-coarse,
// the same 90 bounds across nine levels cost one cover build — the finest,
// which every coarser bound is then served from — and one result-cache miss
// per aggregate set; every answer reports the finest level's served_bound,
// meets the contract at the bound it asked for, equals ACTJoiner at the
// bound it was served at and nests inside ACTJoiner's answer at its bound's
// own level — static, mutated and reopened, in process and over HTTP.
func TestFinerLevelServesCoarserBounds(t *testing.T) {
	regions, scenarios := levelScenarios(t)
	dom := distbound.DomainForRegions(regions...)
	bounds := sameLevelBounds()
	slices.Reverse(bounds)
	finest := dom.CellDiagonal(dom.LevelForBound(bounds[0]))
	eachLevelClient(t, scenarios, func(t *testing.T, sc levelScenario, c levelClient) {
		o := sc.oracle
		builds0, misses0 := c.stats()
		first := map[int][]uint64{}
		var nested []testutil.Served
		owns := map[float64]bool{}
		for _, b := range bounds {
			owns[dom.CellDiagonal(dom.LevelForBound(b))] = true
			for si, aggs := range levelAggSets {
				a := c.query(aggs, b)
				if a.served != finest {
					t.Fatalf("bound %g %v: served at %g m, want the finest resident level's %g m", b, aggs, a.served, finest)
				}
				o.check(t, aggs, b, a)
				if want, ok := first[si]; !ok {
					first[si] = a.bits()
					nested = append(nested, a.nested(t, aggs)...)
				} else if !slices.Equal(a.bits(), want) {
					t.Errorf("bound %g %v: the answer differs from the first, served at the same level", b, aggs)
				}
			}
		}
		if builds, misses := c.stats(); builds-builds0 != 1 || misses-misses0 != int64(len(levelAggSets)) {
			t.Fatalf("%d bounds across nine levels, fine-to-coarse: %d cover builds and %d result-cache misses, want 1 and %d",
				len(bounds), builds-builds0, misses-misses0, len(levelAggSets))
		}
		for own := range owns {
			for _, agg := range []distbound.Agg{distbound.Count, distbound.Min, distbound.Max} {
				nested = append(nested, testutil.Served{Bound: own, Result: o.reference(t, own, agg)})
			}
		}
		testutil.CheckNested(t, "finer level, coarser bounds", nested)
	})
}
