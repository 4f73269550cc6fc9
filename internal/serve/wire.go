// Package serve is distboundd's HTTP/JSON serving layer over the query
// engine: request/response wire types, per-tenant admission control,
// latency/fan-out metrics, and the handler set (query, streamed NDJSON
// batch, stats, health, metrics) that cmd/distboundd mounts. It lives as a
// library so the handlers are testable with httptest and so the ctxflow
// discipline applies: every handler threads the request's own context —
// deadline headers included — into the engine.
package serve

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"distbound"
	"distbound/internal/shard"
)

// Header names of the serving protocol.
const (
	// TenantHeader names the tenant a request bills its admission slot to;
	// absent means the shared "anonymous" tenant.
	TenantHeader = "X-Distbound-Tenant"
	// DeadlineHeader carries the client's remaining budget in milliseconds;
	// the server turns it into a context deadline before touching the
	// engine, so an exhausted budget (including 0) fails fast server-side.
	DeadlineHeader = "X-Distbound-Deadline-Ms"
)

// DefaultTenant is the admission bucket for requests without TenantHeader.
const DefaultTenant = "anonymous"

// QueryRequest is the JSON body of POST /v1/query and of each NDJSON line
// of POST /v1/batch.
type QueryRequest struct {
	// Aggs names the aggregates (count, sum, avg, min, max), answered in
	// one scatter; at least one is required.
	Aggs []string `json:"aggs"`
	// Bound is the distance bound ε; it must be positive — the serving
	// layer is the distance-bounded path.
	Bound float64 `json:"bound"`
}

// AggResult is one aggregate's answer across every region.
type AggResult struct {
	Agg string `json:"agg"`
	// Values holds the final per-region aggregate (SUM/AVG/MIN/MAX as
	// floats; COUNT mirrored as float for uniformity).
	Values []float64 `json:"values"`
	// Counts holds the exact per-region match counts backing the aggregate
	// — always integral, so oracles can compare without float parsing.
	Counts []int64 `json:"counts"`
}

// QueryResponse is the JSON body answering a query, and each NDJSON line
// answering a batch. A batch line that failed carries Error and no Results.
type QueryResponse struct {
	Results []AggResult `json:"results,omitempty"`
	// ShardsContacted always equals ShardsTotal, the partition width: every
	// scatter asks every shard. The field stays for the schema's sake.
	ShardsContacted int `json:"shards_contacted"`
	ShardsTotal     int `json:"shards_total"`
	// ServedBound is the distance bound the answer meets, ≤ the requested
	// bound: the cell diagonal of the cover level that served it, which a
	// resident finer level makes finer than asked.
	ServedBound float64 `json:"served_bound"`
	// WallNs is the backend execution time in nanoseconds.
	WallNs int64  `json:"wall_ns"`
	Error  string `json:"error,omitempty"`
}

// StatsResponse is the JSON body of GET /v1/stats.
type StatsResponse struct {
	Backend     string `json:"backend"`
	Dataset     string `json:"dataset"`
	Regions     int    `json:"regions"`
	Live        int    `json:"live"`
	Dropped     int    `json:"dropped"`
	MemoryBytes int    `json:"memory_bytes"`
	// Epoch is the dataset's mutation counter, summed across shards — every
	// append, delete or compaction moves it, invalidating cached results.
	Epoch  uint64       `json:"epoch"`
	Shards []ShardStats `json:"shards,omitempty"`

	Requests    map[string]uint64 `json:"requests"`
	Rejections  uint64            `json:"admission_rejections"`
	Draining    bool              `json:"draining"`
	ResultCache CacheCounters     `json:"result_cache"`
	Covers      CoverCounters     `json:"covers"`
	Fanout      FanoutCounters    `json:"fanout"`
	Probes      ProbeCounters     `json:"probes"`
}

// FanoutCounters is the scatter's fan-out: queries answered, result-cache
// hits included; shards contacted across them, an executed scatter asking
// every shard and a hit none; and the partition width once any scatter has
// executed.
type FanoutCounters struct {
	Queries   uint64 `json:"queries"`
	Contacted uint64 `json:"contacted"`
	Max       int    `json:"max"`
}

// ProbeCounters sums the shards' probe work: cover ranges probed by base
// fills and delta rows inverted, by the reads and by each shard's
// maintainer, which inverts appended rows for the levels in use off the
// read path (a hit probes nothing). Each live appended row counts once per
// level read; against the query count they give the resident path's warm
// ratio.
type ProbeCounters struct {
	Ranges uint64 `json:"ranges"`
	Delta  uint64 `json:"delta"`
}

// CoverCounters is the cover levels' slice of StatsResponse: cover sets built
// (one per level built, however many shards; a bound a resident finer level
// serves builds none) and their total build wall,
// the resident sets' bytes counted once, and the shards' own state over them.
type CoverCounters struct {
	Builds       int64   `json:"builds"`
	BuildSeconds float64 `json:"build_seconds"`
	Bytes        int     `json:"bytes"`
	StateBytes   int     `json:"state_bytes"`
}

// CacheCounters is the result cache's slice of StatsResponse.
type CacheCounters struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// ShardStats is one shard's slice of StatsResponse; its CoverStateBytes
// is that shard's share of Covers.StateBytes.
type ShardStats = shard.ShardInfo

// AppendRequest is the JSON body of POST /v1/append: points as [x, y]
// pairs, weights required iff the dataset carries a weight column.
type AppendRequest struct {
	Points  [][2]float64 `json:"points"`
	Weights []float64    `json:"weights,omitempty"`
}

// appendBody is AppendRequest as the handler decodes it. encoding/json
// truncates a longer array into [2]float64, zero-fills a shorter one and
// ignores a null element, so each point decodes into three slots and each
// weight into one that record whether a number filled them: a point is
// exactly two numbers when the first two are set and the third is not, and
// a weight is a number when its slot is set.
type appendBody struct {
	Points  [][3]wireNumber `json:"points"`
	Weights []wireNumber    `json:"weights,omitempty"`
}

// wireNumber is one number of an appended row; null, and a slot past the
// end of a point's array, leave it unset.
type wireNumber struct {
	v   float64
	set bool
}

// UnmarshalJSON parses a JSON number, as encoding/json parses one into a
// float64; anything else but null is an error.
//
//distbound:api json.Unmarshaler: the append handler decodes every coordinate and weight through it
func (c *wireNumber) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("%s is not a number a float64 holds", b)
	}
	c.v, c.set = v, true
	return nil
}

// AppendResponse answers an append. IDs serialize as decimal strings —
// they are shard-tagged uint64 handles that float64 JSON numbers cannot
// carry exactly. When some shards refused their rows (Error set, 503), IDs
// still aligns with the request's points: rows the other shards accepted
// carry their IDs, refused rows shard.NoID, and Appended counts the former.
type AppendResponse struct {
	Appended int      `json:"appended"`
	IDs      []string `json:"ids"`
	Error    string   `json:"error,omitempty"`
}

// aggNames are the aggregates' wire names, indexed by distbound.Agg.
var aggNames = [...]string{
	distbound.Count: "count", distbound.Sum: "sum", distbound.Avg: "avg",
	distbound.Min: "min", distbound.Max: "max",
}

// ParseAggs maps wire aggregate names onto engine aggregates. A repeated
// aggregate is rejected, which caps a set at the five distinct ones: every
// entry costs a region-wide result column on every shard.
func ParseAggs(names []string) ([]distbound.Agg, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("at least one aggregate is required")
	}
	out := make([]distbound.Agg, len(names))
	for i, s := range names {
		a := slices.Index(aggNames[:], strings.ToLower(strings.TrimSpace(s)))
		if a < 0 {
			return nil, fmt.Errorf("unknown aggregate %q", s)
		}
		out[i] = distbound.Agg(a)
		if slices.Contains(out[:i], out[i]) {
			return nil, fmt.Errorf("aggregate %q repeated", s)
		}
	}
	return out, nil
}

// appendAnswer appends the QueryResponse answering req with resp, byte for
// byte as encoding/json marshals it, up to "served_bound": nothing
// per-request, so a result-cache entry can keep the bytes. req.Aggs is
// non-empty, as shard.Sharded.Do requires. At the first value JSON cannot
// carry (±Inf, NaN: a SUM can overflow from finite weights) it stops and
// reports the aggregate's index and the region, else badAgg is -1.
//
//distbound:noalloc
func appendAnswer(b []byte, req shard.Request, resp *shard.Response) (_ []byte, badAgg, badRegion int) {
	var col countsColumn
	b = append(b, `{"results":[`...)
	for k, agg := range req.Aggs {
		if k > 0 {
			b = append(b, ',')
		}
		r := &resp.Results[k]
		b = append(b, `{"agg":"`...)
		b = append(b, aggNames[agg]...)
		b = append(b, `","values":[`...)
		if r.Agg == distbound.Count {
			b = col.append(b, r.Counts)
		} else {
			for ri := range r.Counts {
				if ri > 0 {
					b = append(b, ',')
				}
				v := r.Value(ri)
				if math.IsInf(v, 0) || math.IsNaN(v) {
					return b, k, ri
				}
				b = appendFloat(b, v)
			}
		}
		if len(r.Counts) == 0 {
			b = append(b, `],"counts":null}`...) // encoding/json's rendering of a nil copy
			continue
		}
		b = append(b, `],"counts":[`...)
		b = col.append(b, r.Counts)
		b = append(b, "]}"...)
	}
	// Every scatter asks every shard, so the contacted count is the width.
	b = append(b, `],"shards_contacted":`...)
	b = strconv.AppendInt(b, int64(resp.ShardsTotal), 10)
	b = append(b, `,"shards_total":`...)
	b = strconv.AppendInt(b, int64(resp.ShardsTotal), 10)
	b = append(b, `,"served_bound":`...)
	b = appendFloat(b, resp.ServedBound) // a cell diagonal: finite
	return b, -1, 0
}

// countsColumn is the first per-region counts column appendAnswer rendered
// and where its digits sit in the buffer. A merged answer carries one counts
// column for every aggregate, so COUNT's values and each aggregate's counts
// copy those bytes instead of formatting the integers again.
type countsColumn struct {
	counts []int64
	lo, hi int // the digits are b[lo:hi]; hi is 0 until a column is rendered
}

// append appends counts comma-separated, copied when they equal c's column.
//
//distbound:noalloc
func (c *countsColumn) append(b []byte, counts []int64) []byte {
	if c.hi > 0 && slices.Equal(counts, c.counts) {
		b = append(b, b[c.lo:c.hi]...)
		return b
	}
	lo := len(b)
	for i, n := range counts {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, n, 10)
	}
	if c.hi == 0 {
		c.counts, c.lo, c.hi = counts, lo, len(b)
	}
	return b
}
