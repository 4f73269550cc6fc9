package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"distbound"
	"distbound/internal/shard"
)

// toWire is the reference appendAnswer is held to: the backend response
// copied into the wire types, for encoding/json to marshal.
func toWire(req shard.Request, resp shard.Response) QueryResponse {
	out := QueryResponse{
		ShardsContacted: resp.ShardsContacted,
		ShardsTotal:     resp.ShardsTotal,
		WallNs:          resp.Wall.Nanoseconds(),
	}
	for k, agg := range req.Aggs {
		r := resp.Results[k]
		ar := AggResult{
			Agg:    aggNames[agg],
			Values: make([]float64, len(r.Counts)),
			Counts: append([]int64(nil), r.Counts...),
		}
		for ri := range ar.Values {
			ar.Values[ri] = r.Value(ri)
		}
		out.Results = append(out.Results, ar)
	}
	return out
}

// answerResponse builds a response for aggs over per-region counts and
// values: COUNT reads the counts, SUM and AVG take vals as sums, MIN and MAX
// as extremes.
func answerResponse(aggs []distbound.Agg, counts []int64, vals []float64) (shard.Request, shard.Response) {
	resp := shard.Response{ShardsContacted: 3, ShardsTotal: 8, Wall: 12345 * time.Nanosecond}
	for _, a := range aggs {
		r := distbound.Result{Agg: a, Counts: counts}
		switch a {
		case distbound.Sum, distbound.Avg:
			r.Sums = vals
		case distbound.Min, distbound.Max:
			r.Extremes = vals
		}
		resp.Results = append(resp.Results, r)
	}
	return shard.Request{Aggs: aggs, Bound: 1}, resp
}

// checkAnswer holds answer's body and tail to encoding/json's bytes for
// the same answer, and its error to the first value encoding/json refuses.
func checkAnswer(t testing.TB, req shard.Request, resp shard.Response) {
	t.Helper()
	wire := toWire(req, resp)
	want, wantErr := json.Marshal(wire)
	var scratch []byte
	body, tail, err := answer(&scratch, req, &resp)
	if wantErr != nil {
		for _, ar := range wire.Results {
			for ri, v := range ar.Values {
				if math.IsInf(v, 0) || math.IsNaN(v) {
					want := fmt.Sprintf("%s of region %d is %v, which JSON cannot carry", ar.Agg, ri, v)
					if err == nil || err.Error() != want {
						t.Fatalf("answer reported %v, want %q (encoding/json: %v)", err, want, wantErr)
					}
					return
				}
			}
		}
		t.Fatalf("encoding/json refused a finite answer: %v", wantErr)
	}
	if err != nil {
		t.Fatalf("answer refused a finite answer: %v", err)
	}
	if got := string(body) + string(tail); got != string(want)+"\n" {
		t.Fatalf("answer wrote\n%s\nencoding/json writes\n%s", got, want)
	}
}

// TestAnswerMatchesEncodingJSON: every aggregate set, in both orders, over
// the float values whose formatting encoding/json special-cases — signed
// zero, subnormals, the exponent-form thresholds and the e-07 → e-7
// cleanup, the extremes of the range, integral floats — beside all-zero,
// empty (count 0) and zero-region answers, and every non-finite value.
func TestAnswerMatchesEncodingJSON(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-7, -1e-7, 1e-6, 9.99e-7, 1.5e-10,
		1e21, 1e20, -1e21, 999999999999999999999, math.MaxFloat64, -math.MaxFloat64,
		3, -42, 1 << 53, 0.1, 123456.789, math.Pi, 2.5e-300, 1e300,
	}
	counts := make([]int64, len(vals))
	for i := range counts {
		counts[i] = int64(i % 4) // a count of 0 every fourth region
	}
	type shape struct {
		counts []int64
		vals   []float64
	}
	shapes := []shape{
		{counts, vals},
		{make([]int64, 5), make([]float64, 5)}, // all zero
		{[]int64{}, []float64{}},               // no regions
	}
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		shapes = append(shapes, shape{[]int64{1, 2, 3}, []float64{1, v, v}})
	}
	all := []distbound.Agg{distbound.Count, distbound.Sum, distbound.Avg, distbound.Min, distbound.Max}
	for mask := 1; mask < 1<<len(all); mask++ {
		var aggs []distbound.Agg
		for i, a := range all {
			if mask&(1<<i) != 0 {
				aggs = append(aggs, a)
			}
		}
		reversed := make([]distbound.Agg, len(aggs))
		for i, a := range aggs {
			reversed[len(aggs)-1-i] = a
		}
		for _, sh := range shapes {
			for _, set := range [][]distbound.Agg{aggs, reversed} {
				req, resp := answerResponse(set, sh.counts, sh.vals)
				checkAnswer(t, req, resp)
			}
		}
	}
}

// FuzzAnswerMatchesEncodingJSON holds answer to encoding/json over
// arbitrary float bits, counts and wall times, all five aggregates at once.
// Counts are point counts: non-negative, and under 2^53, where COUNT's
// integer digits and encoding/json's float64 digits agree.
func FuzzAnswerMatchesEncodingJSON(f *testing.F) {
	f.Add(math.Float64bits(1.5), int64(2), int64(1000))
	f.Fuzz(func(t *testing.T, bits uint64, count, wall int64) {
		count &= 1<<53 - 1
		v := math.Float64frombits(bits)
		req, resp := answerResponse(
			[]distbound.Agg{distbound.Count, distbound.Sum, distbound.Avg, distbound.Min, distbound.Max},
			[]int64{count, 0, 1}, []float64{v, -v, v})
		resp.Wall = time.Duration(wall)
		checkAnswer(t, req, resp)
	})
}

// TestAnswerAllocationFree pins answer's allocation contract: a miss renders
// into a warm scratch buffer, and a hit whose entry already holds its bytes
// returns them, both without allocating.
func TestAnswerAllocationFree(t *testing.T) {
	regions, pts, ws := testWorkload(t, 4000)
	s, _, err := shard.New("taxi", regions, pts, ws, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	req := shard.Request{Aggs: []distbound.Agg{distbound.Count, distbound.Sum, distbound.Avg, distbound.Min, distbound.Max}, Bound: 64}
	do := func() shard.Response {
		resp, err := s.Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	miss, hit := do(), do()
	var scratch []byte
	if _, _, err := answer(&scratch, req, &hit); err != nil { // fills the entry
		t.Fatal(err)
	}
	if _, _, err := answer(&scratch, req, &miss); err != nil { // warms scratch
		t.Fatal(err)
	}
	for name, resp := range map[string]*shard.Response{"miss into warm scratch": &miss, "memoized hit": &hit} {
		if n := testing.AllocsPerRun(100, func() {
			if _, _, err := answer(&scratch, req, resp); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: %v allocs per answer, want 0", name, n)
		}
	}
}
