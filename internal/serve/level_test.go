package serve

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"distbound"
	"distbound/internal/data"
	"distbound/internal/shard"
	"distbound/internal/testutil"
)

// sameLevelBounds is 2^k × {1.0, 1.1, …, 1.9} for k = 1…9, ascending: ten
// bounds an octave, so every level's bounds are asked for back to back.
func sameLevelBounds() []float64 {
	var out []float64
	for k := 1; k <= 9; k++ {
		for _, m := range []float64{1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9} {
			out = append(out, math.Ldexp(m, k))
		}
	}
	return out
}

// TestBoundsOfOneLevelShareCoverAndAnswer: a bound names a cover level, and
// both caches key on the level, so the 90 bounds of sameLevelBounds cost one
// cover build per level and one result-cache miss per (epoch, aggregate set,
// level), and every answer is bit-identical to the first answer at its level
// — on a static, a mutated (append + delete) and a reopened dataset, in
// process and over HTTP. Each scenario runs on a fresh partition, so its
// epoch is fixed throughout.
func TestBoundsOfOneLevelShareCoverAndAnswer(t *testing.T) {
	// A 4 km city keeps the finest level (ε = 2 m) a cheap build.
	ext := distbound.Rect{Max: distbound.Point{X: 4000, Y: 4000}}
	regions := data.Regions(data.PartitionIn(7, ext, 3, 3, 8))
	dom := distbound.DomainForRegions(regions...)
	pts, _ := data.TaxiPointsIn(8, 3000, ext)
	ws := testutil.ExactWeights(rand.New(rand.NewSource(9)), len(pts))
	build := func(t *testing.T, mutate bool) *shard.Sharded {
		s, ids, err := shard.New("taxi", regions, pts, ws, 3)
		if err != nil {
			t.Fatal(err)
		}
		if mutate {
			extra, _ := data.TaxiPointsIn(10, 300, ext)
			if _, err := s.Append(extra, testutil.ExactWeights(rand.New(rand.NewSource(11)), len(extra))); err != nil {
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

	for _, sc := range []struct {
		name string
		open func(t *testing.T) *shard.Sharded
	}{
		{"static", func(t *testing.T) *shard.Sharded { return build(t, false) }},
		{"mutated", func(t *testing.T) *shard.Sharded { return build(t, true) }},
		{"reopened", func(t *testing.T) *shard.Sharded {
			s, err := shard.Open(regions, dir, distbound.PersistConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	} {
		t.Run(sc.name+"/in-process", func(t *testing.T) {
			s := sc.open(t)
			defer s.Close()
			query := func(aggs []string, bound float64) []uint64 {
				req, err := toShardRequest(QueryRequest{Aggs: aggs, Bound: bound})
				if err != nil {
					t.Fatal(err)
				}
				resp, err := s.Do(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				var out []uint64
				for _, r := range resp.Results {
					for ri := range r.Counts {
						out = append(out, uint64(r.Counts[ri]), math.Float64bits(r.Value(ri)))
					}
				}
				return out
			}
			checkSameLevel(t, dom, query, func() (int64, int64) {
				st := s.Stats()
				return st.Covers.Builds, st.ResultCache.Misses
			})
		})
		t.Run(sc.name+"/http", func(t *testing.T) {
			srv := NewServer(&ShardedBackend{S: sc.open(t)}, 0)
			ts := httptest.NewServer(srv.Handler())
			defer srv.Close()
			defer ts.Close()
			query := func(aggs []string, bound float64) []uint64 {
				resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Aggs: aggs, Bound: bound}, nil)
				var q QueryResponse
				if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &q) != nil {
					t.Fatalf("bound %g: %d %s", bound, resp.StatusCode, body)
				}
				var out []uint64
				for _, r := range q.Results {
					for ri := range r.Counts {
						out = append(out, uint64(r.Counts[ri]), math.Float64bits(r.Values[ri]))
					}
				}
				return out
			}
			checkSameLevel(t, dom, query, func() (int64, int64) {
				_, body := getBody(t, ts.URL+"/v1/stats")
				var st StatsResponse
				if err := json.Unmarshal(body, &st); err != nil {
					t.Fatal(err)
				}
				return st.Covers.Builds, st.ResultCache.Misses
			})
		})
	}
}

// checkSameLevel asks every sameLevelBounds bound for each of two aggregate
// sets through query, and after each bound holds the cover builds and
// result-cache misses stats reports to one per level seen and one per
// (level, aggregate set) seen, and each answer to the first at its level.
func checkSameLevel(t *testing.T, dom distbound.Domain, query func(aggs []string, bound float64) []uint64, stats func() (builds, misses int64)) {
	t.Helper()
	aggSets := [][]string{{"count", "sum", "avg", "min", "max"}, {"count"}}
	builds0, misses0 := stats()
	first := map[[2]int][]uint64{}
	levels := map[int]bool{}
	for _, b := range sameLevelBounds() {
		level := dom.LevelForBound(b)
		levels[level] = true
		for si, aggs := range aggSets {
			got := query(aggs, b)
			key := [2]int{level, si}
			if want, ok := first[key]; !ok {
				first[key] = got
			} else if !slices.Equal(got, want) {
				t.Errorf("bound %g %v: the answer differs from the first at level %d", b, aggs, level)
			}
		}
		builds, misses := stats()
		if builds-builds0 != int64(len(levels)) || misses-misses0 != int64(len(levels)*len(aggSets)) {
			t.Fatalf("after bound %g: %d cover builds and %d result-cache misses for %d levels × %d aggregate sets, want one build a level and one miss a (level, set)",
				b, builds-builds0, misses-misses0, len(levels), len(aggSets))
		}
	}
	if len(levels) < 9 {
		t.Fatalf("the bounds fell on %d levels, want at least 9", len(levels))
	}
	var matched uint64
	for i, v := range first[[2]int{dom.LevelForBound(2), 1}] {
		if i%2 == 0 {
			matched += v
		}
	}
	if matched == 0 {
		t.Fatal("the finest level's COUNT matched no point")
	}
}
