package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"distbound"
	"distbound/internal/data"
	"distbound/internal/shard"
	"distbound/internal/testutil"
	"distbound/internal/testutil/errorfs"
)

// testWorkload builds the shared small fixture: city-tiling regions and a
// weighted taxi point set.
func testWorkload(t *testing.T, n int) ([]distbound.Region, []distbound.Point, []float64) {
	t.Helper()
	regions := data.Regions(data.Partition(5, 3, 3, 8))
	pts, _ := data.TaxiPoints(3, n)
	ws := testutil.ExactWeights(rand.New(rand.NewSource(4)), len(pts))
	return regions, pts, ws
}

// newShardedTS starts an httptest server over the shared workload in four
// shards.
func newShardedTS(t *testing.T, tenantLimit int) (*httptest.Server, []distbound.Region, []distbound.Point, []float64) {
	t.Helper()
	regions, pts, ws := testWorkload(t, 4000)
	return newWidthTS(t, regions, pts, ws, 4, tenantLimit), regions, pts, ws
}

// newWidthTS starts an httptest server over a partition of the given width.
func newWidthTS(t *testing.T, regions []distbound.Region, pts []distbound.Point, ws []float64, shards, tenantLimit int) *httptest.Server {
	t.Helper()
	s, _, err := shard.New("taxi", regions, pts, ws, shards)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(&ShardedBackend{S: s}, tenantLimit)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts
}

func postJSON(t *testing.T, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestQueryMatchesOracle: the served COUNT must equal the brute-force
// classification at the same bound, and SUM must match the exact-weight
// classification bitwise.
func TestQueryMatchesOracle(t *testing.T) {
	ts, regions, pts, ws := newShardedTS(t, 0)
	resp, body := postJSON(t, ts.URL+"/v1/query",
		QueryRequest{Aggs: []string{"count", "sum"}, Bound: 64}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var q QueryResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Results) != 2 || q.Results[0].Agg != "count" || q.Results[1].Agg != "sum" {
		t.Fatalf("results: %+v", q.Results)
	}
	if q.ShardsTotal != 4 || q.ShardsContacted != 4 {
		t.Fatalf("fan-out %d/%d", q.ShardsContacted, q.ShardsTotal)
	}
	cls := testutil.Classify(pts, ws, regions, 64)
	for ri := range regions {
		got, lo, hi := q.Results[0].Counts[ri], cls.MustCount[ri], cls.MustCount[ri]+cls.FreeCount[ri]
		if got < lo || got > hi {
			t.Fatalf("region %d count %d outside [%d, %d]", ri, got, lo, hi)
		}
	}
}

// TestShardedUnshardedHTTPParity: every partition width — one shard
// included, the daemon's -shards 1 — must serve over the wire exactly what an
// unsharded in-process Engine.Do answers, for all five aggregates.
func TestShardedUnshardedHTTPParity(t *testing.T) {
	regions, pts, ws := testWorkload(t, 4000)
	aggs := []distbound.Agg{distbound.Count, distbound.Sum, distbound.Avg, distbound.Min, distbound.Max}

	e := distbound.NewEngine(regions)
	ds, err := e.RegisterPoints("taxi", pts, ws)
	if err != nil {
		t.Fatal(err)
	}
	strat := distbound.StrategyPointIdx
	want, err := e.Do(context.Background(), distbound.Request{Dataset: ds, Aggs: aggs, Bound: 48, Strategy: &strat})
	if err != nil {
		t.Fatal(err)
	}
	defer want.Release()

	req := QueryRequest{Aggs: []string{"count", "sum", "avg", "min", "max"}, Bound: 48}
	for _, shards := range []int{1, 4} {
		ts := newWidthTS(t, regions, pts, ws, shards, 0)
		resp, body := postJSON(t, ts.URL+"/v1/query", req, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shards=%d: %d %s", shards, resp.StatusCode, body)
		}
		var got QueryResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%v in %s", err, body)
		}
		if got.ShardsTotal != shards || got.ShardsContacted != shards {
			t.Fatalf("shards=%d fan-out %d/%d", shards, got.ShardsContacted, got.ShardsTotal)
		}
		for k, agg := range aggs {
			// The wire carries counts and final values; rebuild a Result whose
			// Value and Counts are exactly those, so CheckIdentical compares
			// what a client sees. ExactWeights make even SUM/AVG bitwise
			// comparable.
			served := distbound.Result{Agg: distbound.Sum, Counts: got.Results[k].Counts, Sums: got.Results[k].Values}
			oracle := distbound.Result{Agg: distbound.Sum, Counts: want.Results[k].Counts, Sums: make([]float64, len(regions))}
			for ri := range regions {
				oracle.Sums[ri] = want.Results[k].Value(ri)
			}
			testutil.CheckIdentical(t, fmt.Sprintf("shards=%d agg=%v", shards, agg), oracle, served)
		}
	}
}

// TestBatchStreaming drives the NDJSON endpoint with a mixed stream — valid
// lines, a malformed one, a bad aggregate, a valid line again — and expects
// one response line per request line, in order, errors inline in position.
func TestBatchStreaming(t *testing.T) {
	ts, _, _, _ := newShardedTS(t, 0)
	var in bytes.Buffer
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&in, "{\"aggs\":[\"count\"],\"bound\":%d}\n", 16+8*i)
	}
	in.WriteString("not json\n")
	in.WriteString("{\"aggs\":[\"median\"],\"bound\":16}\n")
	in.WriteString("{\"aggs\":[\"count\"],\"bound\":88}\n") // line 9's shape again
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", &in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var lines []QueryResponse
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var q QueryResponse
		if err := json.Unmarshal(sc.Bytes(), &q); err != nil {
			t.Fatalf("%v in line %q", err, sc.Text())
		}
		lines = append(lines, q)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 13 {
		t.Fatalf("got %d response lines, want 13", len(lines))
	}
	for i := 0; i < 10; i++ {
		if lines[i].Error != "" || len(lines[i].Results) != 1 {
			t.Fatalf("line %d: %+v", i, lines[i])
		}
	}
	if lines[10].Error == "" || lines[11].Error == "" {
		t.Fatalf("malformed lines answered without error: %+v %+v", lines[10], lines[11])
	}
	// The errors sit between their valid neighbours, not after them: the
	// line following the two bad ones is line 9's answer again.
	if lines[12].Error != "" || len(lines[12].Results) != 1 {
		t.Fatalf("valid line after the malformed ones: %+v", lines[12])
	}
	for ri, c := range lines[9].Results[0].Counts {
		if lines[12].Results[0].Counts[ri] != c {
			t.Fatalf("line 12 region %d: count %d, want line 9's %d", ri, lines[12].Results[0].Counts[ri], c)
		}
	}
	// Wider bounds match at least as many points per region.
	for i := 1; i < 10; i++ {
		for ri := range lines[i].Results[0].Counts {
			if lines[i].Results[0].Counts[ri] < lines[i-1].Results[0].Counts[ri] {
				t.Fatalf("line %d region %d: count shrank with a wider bound", i, ri)
			}
		}
	}
}

// TestDeadlinePropagation: a request arriving with an exhausted deadline
// budget must fail promptly with a context error — and must not leak the
// handler goroutine.
func TestDeadlinePropagation(t *testing.T) {
	ts, _, _, _ := newShardedTS(t, 0)
	before := runtime.NumGoroutine()

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/query",
		QueryRequest{Aggs: []string{"count"}, Bound: 64},
		map[string]string{DeadlineHeader: "0"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), context.DeadlineExceeded.Error()) {
		t.Fatalf("expired deadline body: %s", body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("expired deadline took %v; want prompt failure", elapsed)
	}

	// A malformed or negative budget is the client's error, not a timeout;
	// the largest the header can carry is the longest budget there is, not an
	// overflow into an expired one, and a generous one answers normally. The
	// rows that answer come last: they leave a result-cache entry behind that
	// would answer an expired request too.
	for _, c := range []struct {
		header string
		status int
	}{
		{"soon", http.StatusBadRequest},
		{"-1", http.StatusBadRequest},
		{"0", http.StatusGatewayTimeout},
		{"9223372036854775807", http.StatusOK},
		{"30000", http.StatusOK},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/query",
			QueryRequest{Aggs: []string{"count"}, Bound: 64},
			map[string]string{DeadlineHeader: c.header})
		if resp.StatusCode != c.status {
			t.Fatalf("deadline header %q: %d %s, want %d", c.header, resp.StatusCode, body, c.status)
		}
	}

	// No handler goroutine may outlive its expired request. Idle keep-alive
	// connections hold legitimate client and server goroutines, so tear them
	// down before each count — only a leaked handler can then keep it up.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d after expired-deadline requests", before, runtime.NumGoroutine())
}

// blockingBackend parks Query calls until released — the instrument for
// admission tests that need a tenant pinned at its concurrency limit.
type blockingBackend struct {
	entered chan struct{}
	release chan struct{}
}

func (b *blockingBackend) Query(ctx context.Context, req shard.Request) (shard.Response, error) {
	b.entered <- struct{}{}
	select {
	case <-b.release:
	case <-ctx.Done():
		return shard.Response{}, ctx.Err()
	}
	results := make([]distbound.Result, len(req.Aggs))
	for i, a := range req.Aggs {
		results[i] = distbound.Result{Agg: a, Counts: []int64{}}
	}
	return shard.Response{Results: results, ShardsTotal: 1}, nil
}
func (b *blockingBackend) Append(pts []distbound.Point, weights []float64) ([]uint64, error) {
	return nil, fmt.Errorf("blocking backend is read-only")
}
func (b *blockingBackend) Healthy() error             { return nil }
func (b *blockingBackend) Describe(st *StatsResponse) {}
func (b *blockingBackend) Close()                     {}

// TestAdmissionControl: with a per-tenant limit of 1, a tenant's second
// concurrent request gets 429 while a different tenant's request proceeds;
// once the first request finishes, the tenant is admitted again.
func TestAdmissionControl(t *testing.T) {
	bb := &blockingBackend{entered: make(chan struct{}, 8), release: make(chan struct{})}
	srv := NewServer(bb, 1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := QueryRequest{Aggs: []string{"count"}, Bound: 64}
	// postStatus avoids t.Fatal so it is safe from helper goroutines.
	postStatus := func(tenant string) int {
		buf, _ := json.Marshal(body)
		req, _ := http.NewRequest("POST", ts.URL+"/v1/query", bytes.NewReader(buf))
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return -1
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining
		resp.Body.Close()
		return resp.StatusCode
	}
	var wg sync.WaitGroup
	wg.Add(1)
	firstStatus := make(chan int, 1)
	go func() {
		defer wg.Done()
		firstStatus <- postStatus("a")
	}()
	<-bb.entered // tenant a now holds its only token inside the backend

	if st := postStatus("a"); st != http.StatusTooManyRequests {
		t.Fatalf("tenant a second request: %d", st)
	}

	done := make(chan int, 1)
	go func() {
		done <- postStatus("b")
	}()
	<-bb.entered // tenant b was admitted despite a's saturation
	close(bb.release)
	if st := <-done; st != http.StatusOK {
		t.Fatalf("tenant b: %d", st)
	}
	wg.Wait()
	if st := <-firstStatus; st != http.StatusOK {
		t.Fatalf("tenant a first request: %d", st)
	}

	// Token returned: tenant a is admitted again.
	if st := postStatus("a"); st != http.StatusOK {
		t.Fatalf("tenant a after release: %d", st)
	}

	// The rejection is visible in stats and metrics.
	sresp, sbody := getBody(t, ts.URL+"/v1/stats")
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", sresp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal(sbody, &st); err != nil {
		t.Fatal(err)
	}
	if st.Rejections != 1 {
		t.Fatalf("stats rejections = %d, want 1", st.Rejections)
	}
	_, mbody := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(mbody), "distboundd_admission_rejections_total 1") {
		t.Fatalf("metrics missing rejection counter:\n%s", mbody)
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestStatsHealthMetrics covers the observability endpoints end to end on a
// real backend.
func TestStatsHealthMetrics(t *testing.T) {
	ts, regions, pts, _ := newShardedTS(t, 0)
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/v1/query", QueryRequest{Aggs: []string{"count"}, Bound: 32}, nil)
	}

	resp, body := getBody(t, ts.URL+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Backend != "sharded" || st.Dataset != "taxi" || st.Regions != len(regions) {
		t.Fatalf("stats: %+v", st)
	}
	if st.Live != len(pts) || len(st.Shards) != 4 || st.Requests["query"] != 3 {
		t.Fatalf("stats: %+v", st)
	}
	// Three queries, the last two result-cache hits: one scatter's fan-out.
	if f := st.Fanout; f.Queries != 3 || f.Contacted == 0 || f.Contacted > 4 || f.Max != int(f.Contacted) {
		t.Fatalf("stats fanout %+v after one scatter and two hits", f)
	}

	resp, body = getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}

	_, body = getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"distboundd_requests_total{endpoint=\"query\"} 3",
		"distboundd_shard_fanout_max",
		"distboundd_query_latency_seconds{quantile=\"0.99\"}",
		"distboundd_draining 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestDrainingHealth: a draining server flips /healthz to 503 while still
// answering queries until shutdown completes.
func TestDrainingHealth(t *testing.T) {
	regions, pts, ws := testWorkload(t, 1000)
	s, _, err := shard.New("taxi", regions, pts, ws, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(&ShardedBackend{S: s}, 0)
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	srv.SetDraining(true)
	resp, _ := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/query", QueryRequest{Aggs: []string{"count"}, Bound: 32}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining query: %d", resp.StatusCode)
	}
}

// TestHealthzFailsOnWedgedStore: a write-ahead-log failure wedges the store
// — every later mutation is refused — and /healthz must say so with a 503
// at every partition width, one shard included, while queries keep
// answering. Before the failure, and on a store that was never persisted,
// health is ok.
func TestHealthzFailsOnWedgedStore(t *testing.T) {
	regions, pts, ws := testWorkload(t, 1500)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			fs := errorfs.New()
			s, _, err := shard.New("taxi", regions, pts, ws, shards)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Persist(t.TempDir(), distbound.PersistConfig{}.WithFS(fs)); err != nil {
				t.Fatal(err)
			}
			srv := NewServer(&ShardedBackend{S: s}, 0)
			ts := httptest.NewServer(srv.Handler())
			defer func() { ts.Close(); srv.Close() }()

			one := AppendRequest{Points: [][2]float64{{pts[0].X, pts[0].Y}}, Weights: []float64{1}}
			if resp, body := postJSON(t, ts.URL+"/v1/append", one, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("healthy append: %d %s", resp.StatusCode, body)
			}
			// On a healthy store a refused append is the request's fault.
			if resp, body := postJSON(t, ts.URL+"/v1/append", AppendRequest{Points: one.Points}, nil); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("append without the weight column on a healthy store: %d %s, want 400", resp.StatusCode, body)
			}
			if resp, body := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
				t.Fatalf("healthy durable store: healthz %d %q", resp.StatusCode, body)
			}

			fs.FailAt(fs.Ops()) // the very next filesystem call: the append's log record
			if resp, body := postJSON(t, ts.URL+"/v1/append", one, nil); resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("the append whose log write failed: %d %s, want 503", resp.StatusCode, body)
			}
			resp, body := getBody(t, ts.URL+"/healthz")
			if resp.StatusCode != http.StatusServiceUnavailable || !strings.HasPrefix(string(body), "wedged: ") {
				t.Fatalf("wedged store: healthz %d %q, want 503 wedged: …", resp.StatusCode, body)
			}
			if resp, body := postJSON(t, ts.URL+"/v1/append", one, nil); resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "wedged: ") {
				t.Fatalf("append to a wedged store: %d %s, want 503 wedged: …", resp.StatusCode, body)
			}
			if resp, _ := postJSON(t, ts.URL+"/v1/query", QueryRequest{Aggs: []string{"count"}, Bound: 32}, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("wedged store stopped answering queries: %d", resp.StatusCode)
			}
		})
	}
}

// TestAppendErrorBodyCarriesLandedIDs: when one shard's log fails under a
// batch spanning several, the 503 body still aligns an ID with every point —
// real for the rows the healthy shards accepted, NoID for the wedged shard's
// — so a client knows which rows not to resend.
func TestAppendErrorBodyCarriesLandedIDs(t *testing.T) {
	regions, pts, ws := testWorkload(t, 1500)
	fs := errorfs.New()
	s, _, err := shard.New("taxi", regions, pts, ws, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Persist(t.TempDir(), distbound.PersistConfig{}.WithFS(fs)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(&ShardedBackend{S: s}, 0)
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	var batch AppendRequest
	for i := 0; i < 64; i++ {
		batch.Points = append(batch.Points, [2]float64{pts[i].X, pts[i].Y})
		batch.Weights = append(batch.Weights, 1)
	}
	fs.FailAt(fs.Ops()) // the first group's log record; the later shards' succeed
	resp, body := postJSON(t, ts.URL+"/v1/append", batch, nil)
	var ar AppendResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(ar.Error, "wedged: ") {
		t.Fatalf("partially failed append: %d %s, want 503 wedged: …", resp.StatusCode, body)
	}
	landed := 0
	for _, id := range ar.IDs {
		if id != strconv.FormatUint(shard.NoID, 10) {
			landed++
		}
	}
	if len(ar.IDs) != len(batch.Points) || landed == 0 || landed == len(ar.IDs) || ar.Appended != landed {
		t.Fatalf("error body reports %d appended, %d of %d IDs real; want every point aligned, some landed, some not",
			ar.Appended, landed, len(ar.IDs))
	}
}

// TestProbeWorkMetrics: /metrics sums the probe work the shards did — a
// fill's ranges on the first query, nothing on a result-cache hit, and after
// an append exactly the appended rows with no new fill, whether a read or
// the shard's maintainer inverted them — which is the resident path's warm
// ratio, readable without a profiler. Over two read levels the delta count
// is the live appended rows once per level. The cover counters beside them
// show the bound was rasterized once for all four shards, and /v1/stats
// splits its bytes into the shared sets and the shards' own state.
func TestProbeWorkMetrics(t *testing.T) {
	ts, _, pts, _ := newShardedTS(t, 0)
	scrape := func() (ranges, delta, builds, coverBytes uint64) {
		t.Helper()
		_, body := getBody(t, ts.URL+"/metrics")
		for _, line := range strings.Split(string(body), "\n") {
			fmt.Sscanf(line, "distboundd_ranges_probed_total %d", &ranges) //nolint:errcheck // non-matching lines
			fmt.Sscanf(line, "distboundd_delta_probed_total %d", &delta)   //nolint:errcheck // non-matching lines
			fmt.Sscanf(line, "distboundd_cover_builds_total %d", &builds)  //nolint:errcheck // non-matching lines
			fmt.Sscanf(line, "distboundd_cover_bytes %d", &coverBytes)     //nolint:errcheck // non-matching lines
		}
		return ranges, delta, builds, coverBytes
	}
	q := QueryRequest{Aggs: []string{"count", "sum"}, Bound: 32}
	if r, d, b, cb := scrape(); r != 0 || d != 0 || b != 0 || cb != 0 {
		t.Fatalf("fresh server reports probe work {%d %d}, %d cover builds, %d cover bytes", r, d, b, cb)
	}
	postJSON(t, ts.URL+"/v1/query", q, nil)
	filled, d, builds, coverBytes := scrape()
	if filled == 0 || d != 0 {
		t.Fatalf("first query reports {%d %d}, want a fill and no delta", filled, d)
	}
	if builds != 1 || coverBytes == 0 {
		t.Fatalf("first query over 4 shards reports %d cover builds (%d B), want the one shared set", builds, coverBytes)
	}
	postJSON(t, ts.URL+"/v1/query", q, nil) // result-cache hit
	if r, d, _, _ := scrape(); r != filled || d != 0 {
		t.Fatalf("a cache hit added probe work: {%d %d} after {%d 0}", r, d, filled)
	}
	app := AppendRequest{Weights: []float64{1, 2, 3}}
	for _, p := range pts[:3] {
		app.Points = append(app.Points, [2]float64{p.X, p.Y})
	}
	if resp, body := postJSON(t, ts.URL+"/v1/append", app, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	postJSON(t, ts.URL+"/v1/query", q, nil)
	if r, d, b, _ := scrape(); r != filled || d != 3 || b != 1 {
		t.Fatalf("read after 3 appends reports {%d %d} and %d cover builds, want {%d 3} and 1: base partials reused, new rows inverted once", r, d, b, filled)
	}

	_, body := getBody(t, ts.URL+"/v1/stats")
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if p := st.Probes; p.Ranges != filled || p.Delta != 3 {
		t.Fatalf("stats probes %+v, metrics said {%d 3}", p, filled)
	}
	perShard := 0
	for _, sh := range st.Shards {
		perShard += sh.CoverStateBytes
	}
	if c := st.Covers; c.Builds != 1 || uint64(c.Bytes) != coverBytes || c.BuildSeconds <= 0 || c.StateBytes == 0 || c.StateBytes != perShard {
		t.Fatalf("stats covers %+v (shards sum to %d B of state), metrics said %d B", c, perShard, coverBytes)
	}

	// A second, finer level inverts the 3 live rows on its first read; two
	// more rows are then inverted once at each of the two levels.
	fine := QueryRequest{Aggs: []string{"count", "sum"}, Bound: 16}
	postJSON(t, ts.URL+"/v1/query", fine, nil)
	app = AppendRequest{Weights: []float64{4, 5}}
	for _, p := range pts[3:5] {
		app.Points = append(app.Points, [2]float64{p.X, p.Y})
	}
	if resp, body := postJSON(t, ts.URL+"/v1/append", app, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	postJSON(t, ts.URL+"/v1/query", q, nil)
	postJSON(t, ts.URL+"/v1/query", fine, nil)
	if _, d, b, _ := scrape(); d != 5*2 || b != 2 {
		t.Fatalf("after 5 appended rows read at two levels: %d delta rows inverted, %d cover builds; want 10 and 2", d, b)
	}
}

// TestValidationErrors maps the client-error space onto 400s.
func TestValidationErrors(t *testing.T) {
	ts, _, _, _ := newShardedTS(t, 0)
	for _, tc := range []QueryRequest{
		{Bound: 16},                               // no aggregates
		{Aggs: []string{"count"}},                 // no bound
		{Aggs: []string{"count"}, Bound: -3},      // negative bound
		{Aggs: []string{"percentile"}, Bound: 16}, // unknown aggregate
	} {
		resp, body := postJSON(t, ts.URL+"/v1/query", tc, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%+v: %d %s", tc, resp.StatusCode, body)
		}
		var q QueryResponse
		if err := json.Unmarshal(body, &q); err != nil || q.Error == "" {
			t.Fatalf("%+v: error body %s", tc, body)
		}
	}
}

// TestTrailingBytesAfterBody: /v1/query and /v1/append take exactly one
// JSON value, as a /v1/batch line does. Anything but whitespace after it is
// a 400, and a second append object lands no rows; a trailing newline is
// whitespace.
func TestTrailingBytesAfterBody(t *testing.T) {
	ts, _, _, _ := newShardedTS(t, 0)
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(out)
	}
	live := func() int {
		t.Helper()
		var st StatsResponse
		if _, body := getBody(t, ts.URL+"/v1/stats"); json.Unmarshal(body, &st) != nil {
			t.Fatalf("stats body %s", body)
		}
		return st.Live
	}
	const query = `{"aggs":["count"],"bound":64}`
	const row, row2 = `{"points":[[100,100]],"weights":[1.5]}`, `{"points":[[200,200]],"weights":[2.5]}`
	for _, tc := range []struct{ path, body, char string }{
		{"/v1/query", query + " garbage", "'g'"},
		{"/v1/query", query + query, "'{'"},
		{"/v1/query", query + "\n}", "'}'"},
		{"/v1/append", row + row2, "'{'"},
		{"/v1/append", row + " 1", "'1'"},
	} {
		before := live()
		code, body := post(tc.path, tc.body)
		if want := "invalid character " + tc.char + " after top-level value"; code != http.StatusBadRequest || !strings.Contains(body, want) {
			t.Fatalf("%s %q: %d %s, want 400 naming %s", tc.path, tc.body, code, body, want)
		}
		if after := live(); after != before {
			t.Fatalf("%s %q: refused, yet live rows went %d -> %d", tc.path, tc.body, before, after)
		}
	}
	if code, body := post("/v1/query", query+"\n"); code != http.StatusOK {
		t.Fatalf("query with a trailing newline: %d %s", code, body)
	}
	before := live()
	if code, body := post("/v1/append", row+" \r\n\t\n"); code != http.StatusOK {
		t.Fatalf("append with trailing whitespace: %d %s", code, body)
	}
	if after := live(); after != before+1 {
		t.Fatalf("append of one row moved live rows %d -> %d", before, after)
	}
}

// TestMalformedPointRejected: an appended point is exactly two numbers, and
// a weight one number. encoding/json would truncate, zero-fill or skip null
// into a [2]float64 or a float64 and append a made-up row; each such body is
// a 400 that appends nothing and leaves the epoch alone (a null weight's
// error names its index), while a well-formed one still lands.
func TestMalformedPointRejected(t *testing.T) {
	ts, _, _, _ := newShardedTS(t, 0)
	stats := func() StatsResponse {
		t.Helper()
		var st StatsResponse
		if _, body := getBody(t, ts.URL+"/v1/stats"); json.Unmarshal(body, &st) != nil {
			t.Fatalf("stats body %s", body)
		}
		return st
	}
	post := func(body string) (int, string) {
		t.Helper()
		resp, out := postJSON(t, ts.URL+"/v1/append", json.RawMessage(body), nil)
		return resp.StatusCode, string(out)
	}
	for _, body := range []string{
		`{"points":[[5]],"weights":[1]}`,
		`{"points":[[100,200,300]],"weights":[1]}`,
		`{"points":[null],"weights":[1]}`,
		`{"points":[[]],"weights":[1]}`,
		`{"points":[[1,null]],"weights":[1]}`,
		`{"points":[[null,1]],"weights":[1]}`,
		`{"points":[[100,200],[300]],"weights":[1,2]}`,
		`{"points":[["100",200]],"weights":[1]}`,
		`{"points":[[100,1e400]],"weights":[1]}`,
		`{"points":[[100,200]],"weights":[null]}`,
		`{"points":[[100,200],[300,400]],"weights":[1,null]}`,
	} {
		before := stats()
		code, out := post(body)
		if code != http.StatusBadRequest || !strings.Contains(out, `"error"`) {
			t.Fatalf("%s: %d %s, want a 400 with an error", body, code, out)
		}
		if i := strings.Index(body, `"weights":[`); strings.HasSuffix(body, "null]}") &&
			!strings.Contains(out, fmt.Sprintf("weight %d ", strings.Count(body[i:], ","))) {
			t.Fatalf("%s: %s, want the error to name the null weight's index", body, out)
		}
		if after := stats(); after.Live != before.Live || after.Epoch != before.Epoch {
			t.Fatalf("%s: refused, yet live %d -> %d, epoch %d -> %d", body, before.Live, after.Live, before.Epoch, after.Epoch)
		}
	}
	before := stats()
	code, out := post(` {"points": [ [100, 200.5] , [ -0, 3e2 ] ], "weights": [1, 2]}`)
	if code != http.StatusOK || !strings.HasPrefix(out, `{"appended":2,"ids":["`) {
		t.Fatalf("well-formed append: %d %s", code, out)
	}
	if after := stats(); after.Live != before.Live+2 {
		t.Fatalf("well-formed append of two rows moved live rows %d -> %d", before.Live, after.Live)
	}
}

// TestBoundFinerThanLeafCell: a positive bound finer than the leaf cell is
// the client's error: a 400 naming the floor on /v1/query, and an inline
// error on its /v1/batch line that leaves its sibling answered.
func TestBoundFinerThanLeafCell(t *testing.T) {
	ts, regions, _, _ := newShardedTS(t, 0)
	floor := strconv.FormatFloat(distbound.DomainForRegions(regions...).CellDiagonal(distbound.MaxLevel), 'g', -1, 64)
	resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Aggs: []string{"count"}, Bound: 5e-324}, nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), floor) {
		t.Fatalf("too-fine bound on /v1/query: %d %s, want 400 naming the floor %s", resp.StatusCode, body, floor)
	}

	in := strings.NewReader("{\"aggs\":[\"count\"],\"bound\":1e-9}\n{\"aggs\":[\"count\"],\"bound\":16}\n")
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []QueryResponse
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		var q QueryResponse
		if err := json.Unmarshal(sc.Bytes(), &q); err != nil {
			t.Fatalf("%v in line %q", err, sc.Text())
		}
		lines = append(lines, q)
	}
	if len(lines) != 2 || !strings.Contains(lines[0].Error, floor) || lines[1].Error != "" || len(lines[1].Results) != 1 {
		t.Fatalf("batch answered %+v, want an inline error naming the floor %s, then an answer", lines, floor)
	}
}

// TestRepeatedAggregateRejected: an aggregate named twice is a 400 on
// /v1/query and an inline error on its /v1/batch line, so a request body
// cannot buy one region-wide result column per repeated entry.
func TestRepeatedAggregateRejected(t *testing.T) {
	ts, _, _, _ := newShardedTS(t, 0)
	resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Aggs: []string{"count", "sum", "count"}, Bound: 16}, nil)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "repeated") {
		t.Fatalf("repeated aggregate on /v1/query: %d %s, want 400", resp.StatusCode, body)
	}

	in := strings.NewReader("{\"aggs\":[\"sum\",\" SUM\"],\"bound\":16}\n{\"aggs\":[\"count\",\"sum\",\"avg\",\"min\",\"max\"],\"bound\":16}\n")
	resp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", in)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []QueryResponse
	for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
		var q QueryResponse
		if err := json.Unmarshal(sc.Bytes(), &q); err != nil {
			t.Fatalf("%v in line %q", err, sc.Text())
		}
		lines = append(lines, q)
	}
	if len(lines) != 2 || !strings.Contains(lines[0].Error, "repeated") || lines[1].Error != "" || len(lines[1].Results) != 5 {
		t.Fatalf("batch answered %+v, want an inline repeat error then the five distinct aggregates", lines)
	}
}

// TestFanoutCountCountsObservations: distboundd_shard_fanout_count is the
// denominator of the mean fan-out, so it counts exactly the queries the
// scatter answered — a rejected query, or one whose deadline expires in the
// scatter, adds to neither it nor distboundd_shard_fanout_sum, and a
// result-cache hit adds one query that contacted no shard.
func TestFanoutCountCountsObservations(t *testing.T) {
	ts, _, _, _ := newShardedTS(t, 0)
	scrape := func() (count, sum uint64) {
		t.Helper()
		_, body := getBody(t, ts.URL+"/metrics")
		for _, line := range strings.Split(string(body), "\n") {
			fmt.Sscanf(line, "distboundd_shard_fanout_count %d", &count) //nolint:errcheck // non-matching lines
			fmt.Sscanf(line, "distboundd_shard_fanout_sum %d", &sum)     //nolint:errcheck // non-matching lines
		}
		return count, sum
	}
	before, sum0 := scrape()
	if resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Aggs: []string{"count"}, Bound: -1}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid query: %d %s, want 400", resp.StatusCode, body)
	}
	if got, sum := scrape(); got != before || sum != sum0 {
		t.Fatalf("a 400 moved the fan-out count %d -> %d, sum %d -> %d", before, got, sum0, sum)
	}
	resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Aggs: []string{"count"}, Bound: 16}, nil)
	var q QueryResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &q) != nil {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	got, sum1 := scrape()
	if got != before+1 || sum1 != sum0+uint64(q.ShardsContacted) || q.ShardsContacted == 0 {
		t.Fatalf("a served query moved the fan-out count %d -> %d and sum %d -> %d, want +1 and +%d", before, got, sum0, sum1, q.ShardsContacted)
	}
	postJSON(t, ts.URL+"/v1/query", QueryRequest{Aggs: []string{"count"}, Bound: 16}, nil) // result-cache hit
	if got, sum := scrape(); got != before+2 || sum != sum1 {
		t.Fatalf("a result-cache hit moved the fan-out count to %d (want %d) and the sum %d -> %d (want no shard contacted)", got, before+2, sum1, sum)
	}
	// Another shape over the now-built cover: scattered, then out of time.
	resp, body = postJSON(t, ts.URL+"/v1/query", QueryRequest{Aggs: []string{"sum"}, Bound: 16}, map[string]string{DeadlineHeader: "0"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("query with a spent deadline: %d %s, want 504", resp.StatusCode, body)
	}
	if got, sum := scrape(); got != before+2 || sum != sum1 {
		t.Fatalf("a 504 moved the fan-out count to %d (want %d) and the sum %d -> %d", got, before+2, sum1, sum)
	}
}

// TestWorkersFieldIgnored: /v1/query has no "workers" field; a body that
// still carries one is the same request as one without it, answered byte
// for byte alike up to wall_ns — on /v1/query and on a /v1/batch line, with
// the result cache off so both executed.
func TestWorkersFieldIgnored(t *testing.T) {
	regions, pts, ws := testWorkload(t, 4000)
	s, _, err := shard.New("taxi", regions, pts, ws, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.SetResultCacheCapacity(0)
	srv := NewServer(&ShardedBackend{S: s}, 0)
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	const plain = `{"aggs":["count","sum","min"],"bound":32}`
	const withWorkers = `{"aggs":["count","sum","min"],"bound":32,"workers":1}`
	upToWall := func(body []byte) string {
		t.Helper()
		i := bytes.LastIndex(body, []byte(`,"wall_ns":`))
		if i < 0 {
			t.Fatalf("no wall_ns in %s", body)
		}
		return string(body[:i])
	}
	post := func(path, body string) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d %s (%v)", path, body, resp.StatusCode, out, err)
		}
		return out
	}
	want := upToWall(post("/v1/query", plain))
	if got := upToWall(post("/v1/query", withWorkers)); got != want {
		t.Fatalf("/v1/query with workers answered\n%s\nwithout\n%s", got, want)
	}
	if got := upToWall(post("/v1/batch", withWorkers+"\n")); got != want {
		t.Fatalf("/v1/batch line with workers answered\n%s\n/v1/query without\n%s", got, want)
	}
	if hits := s.Stats().ResultCache.Hits; hits != 0 {
		t.Fatalf("%d result-cache hits with the cache off: the comparison did not execute", hits)
	}
}

// TestShardStatsWire pins the bytes of a /v1/stats "shards" entry: keys in
// order, SFC keys as decimal strings.
func TestShardStatsWire(t *testing.T) {
	b, err := json.Marshal([]ShardStats{{LoKey: 1, HiKey: math.MaxUint64, Live: 3, Generation: 4, Epoch: 5, CoverStateBytes: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `[{"lo_key":"1","hi_key":"18446744073709551615","live":3,"generation":4,"epoch":5,"cover_state_bytes":6}]`; string(b) != want {
		t.Fatalf("shards entry %s, want %s", b, want)
	}
}

// TestResultCacheOverHTTP is the daemon-level cache contract: a repeated
// identical query is a cache hit, an append through POST /v1/append bumps
// the epoch and strands the entry, and /v1/stats + /metrics expose all of
// it — the same observations the CI cache smoke greps for.
func TestResultCacheOverHTTP(t *testing.T) {
	ts, _, _, _ := newShardedTS(t, 0)

	stats := func() StatsResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	// The body up to wall_ns, the only per-request field: a miss, the first
	// hit (which renders and keeps the bytes) and later hits (which write the
	// kept bytes) must agree on it exactly.
	var bodies []string
	query := func() QueryResponse {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/query",
			QueryRequest{Aggs: []string{"count", "sum"}, Bound: 64}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %d %s", resp.StatusCode, body)
		}
		if resp.ContentLength != int64(len(body)) {
			t.Fatalf("Content-Length %d for a %d-byte body", resp.ContentLength, len(body))
		}
		var q QueryResponse
		if err := json.Unmarshal(body, &q); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(body[:bytes.LastIndex(body, []byte(`,"wall_ns":`))]))
		return q
	}

	cold := query()
	st0 := stats()
	warm := query()
	st1 := stats()
	if st1.ResultCache.Hits != st0.ResultCache.Hits+1 {
		t.Fatalf("repeated query was not a hit: %+v -> %+v", st0.ResultCache, st1.ResultCache)
	}
	query()
	for i, b := range bodies[1:] {
		if b != bodies[0] {
			t.Fatalf("hit %d body differs from the miss's beyond wall_ns:\n%s\n%s", i+1, b, bodies[0])
		}
	}
	if len(warm.Results) != len(cold.Results) {
		t.Fatalf("hit reshaped the response: %d vs %d results", len(warm.Results), len(cold.Results))
	}
	for k := range cold.Results {
		for ri := range cold.Results[k].Values {
			if warm.Results[k].Values[ri] != cold.Results[k].Values[ri] ||
				warm.Results[k].Counts[ri] != cold.Results[k].Counts[ri] {
				t.Fatalf("cached result diverged at result %d region %d", k, ri)
			}
		}
	}

	// Append over the wire: epoch moves, the next identical query misses.
	resp, body := postJSON(t, ts.URL+"/v1/append",
		AppendRequest{Points: [][2]float64{{100, 100}, {200, 200}}, Weights: []float64{1, 2}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	var ar AppendResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Appended != 2 || len(ar.IDs) != 2 {
		t.Fatalf("append response: %+v", ar)
	}
	st2 := stats()
	if st2.Epoch == st1.Epoch {
		t.Fatalf("append left the epoch at %d", st1.Epoch)
	}
	if st2.Requests["append"] != 1 {
		t.Fatalf("append counter: %+v", st2.Requests)
	}
	fresh := query()
	st3 := stats()
	if st3.ResultCache.Hits != st2.ResultCache.Hits {
		t.Fatalf("post-append query hit a stale entry: %+v", st3.ResultCache)
	}
	if query(); bodies[len(bodies)-1] != bodies[len(bodies)-2] || bodies[len(bodies)-1] == bodies[0] {
		t.Fatal("the first hit after an append must render the fresh answer, not the stranded one")
	}
	if st3.ResultCache.Misses <= st2.ResultCache.Misses {
		t.Fatalf("post-append query did not miss: %+v -> %+v", st2.ResultCache, st3.ResultCache)
	}
	// The two in-domain appended points must show up in the counts.
	var coldTotal, freshTotal int64
	for ri := range cold.Results[0].Counts {
		coldTotal += cold.Results[0].Counts[ri]
		freshTotal += fresh.Results[0].Counts[ri]
	}
	if freshTotal < coldTotal {
		t.Fatalf("count total fell from %d to %d after append", coldTotal, freshTotal)
	}

	// Append rejection: weights against the schema are a 400, not a 500.
	resp, _ = postJSON(t, ts.URL+"/v1/append",
		AppendRequest{Points: [][2]float64{{1, 1}}}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("weightless append on a weighted dataset: %d", resp.StatusCode)
	}

	// /metrics carries the cache counters and epoch gauges.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"distboundd_result_cache_hits_total",
		"distboundd_result_cache_misses_total",
		"distboundd_result_cache_evictions_total",
		"distboundd_dataset_epoch",
		"distboundd_requests_total{endpoint=\"append\"}",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Fatalf("/metrics missing %s:\n%s", want, mbody)
		}
	}
}

// TestNonFiniteAggregate: finite weights can still sum past MaxFloat64, and
// JSON has no number for the +Inf that results. /v1/query must answer 500
// naming the aggregate and region, not 200 with an empty body, and a batch
// must answer that line with an inline error and keep streaming its
// siblings.
func TestNonFiniteAggregate(t *testing.T) {
	ts, _, _, _ := newShardedTS(t, 0)
	countAt := func() []int64 {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/query", QueryRequest{Aggs: []string{"count"}, Bound: 64}, nil)
		var q QueryResponse
		if err := json.Unmarshal(body, &q); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("count query: %d %s (%v)", resp.StatusCode, body, err)
		}
		return q.Results[0].Counts
	}
	before := countAt()
	resp, body := postJSON(t, ts.URL+"/v1/append",
		AppendRequest{Points: [][2]float64{{100, 100}, {100, 100}}, Weights: []float64{1.5e308, 1.5e308}}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: %d %s", resp.StatusCode, body)
	}
	region := -1
	for ri, c := range countAt() {
		if c != before[ri] {
			region = ri
			break
		}
	}
	if region < 0 {
		t.Fatal("the appended points landed in no region")
	}
	want := fmt.Sprintf("sum of region %d is +Inf", region)

	resp, body = postJSON(t, ts.URL+"/v1/query", QueryRequest{Aggs: []string{"count", "sum"}, Bound: 64}, nil)
	var q QueryResponse
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatalf("query answered %d with %q: %v", resp.StatusCode, body, err)
	}
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(q.Error, want) {
		t.Fatalf("query answered %d %q, want 500 naming %q", resp.StatusCode, body, want)
	}

	bresp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", strings.NewReader(
		"{\"aggs\":[\"sum\"],\"bound\":64}\n{\"aggs\":[\"count\"],\"bound\":64}\n"))
	if err != nil {
		t.Fatal(err)
	}
	lines, err := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var got []QueryResponse
	for _, line := range bytes.Split(bytes.TrimSpace(lines), []byte("\n")) {
		var l QueryResponse
		if err := json.Unmarshal(line, &l); err != nil {
			t.Fatalf("batch line %q: %v", line, err)
		}
		got = append(got, l)
	}
	if len(got) != 2 || !strings.Contains(got[0].Error, want) || got[1].Error != "" || len(got[1].Results) != 1 {
		t.Fatalf("batch answered %q, want an inline error naming %q, then the count line", lines, want)
	}
}
