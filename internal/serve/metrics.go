package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latRingSize bounds the latency sample window the percentiles summarize;
// a power of two keeps the ring arithmetic trivial.
const latRingSize = 4096

// metrics is what the handlers alone see: per-endpoint request counters,
// errors, and a fixed-size ring of recent query latencies the percentile
// gauges summarize. The backend's own state — epoch, caches, the scatter's
// fan-out and probe work — is read from its stats snapshot at scrape time.
// Everything is lock-free except the ring, whose short critical sections
// bound the hot-path cost.
type metrics struct {
	queries    atomic.Uint64
	batches    atomic.Uint64
	batchLines atomic.Uint64
	appends    atomic.Uint64
	errors     atomic.Uint64

	mu    sync.Mutex
	ring  [latRingSize]time.Duration
	next  int
	count int
}

// observe records one finished query execution's latency.
func (m *metrics) observe(d time.Duration) {
	m.mu.Lock()
	m.ring[m.next] = d
	m.next = (m.next + 1) % latRingSize
	if m.count < latRingSize {
		m.count++
	}
	m.mu.Unlock()
}

// percentiles returns the p50/p90/p99 of the latency window; zeros when no
// query has completed yet.
func (m *metrics) percentiles() (p50, p90, p99 time.Duration) {
	m.mu.Lock()
	lats := make([]time.Duration, m.count)
	copy(lats, m.ring[:m.count])
	m.mu.Unlock()
	if len(lats) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lats, func(a, b int) bool { return lats[a] < lats[b] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(lats)-1))
		return lats[i]
	}
	return at(0.50), at(0.90), at(0.99)
}

// render writes st — the snapshot /v1/stats serves — and the counters only
// the handlers keep in the text exposition format /metrics serves.
func (m *metrics) render(w io.Writer, st *StatsResponse) {
	fmt.Fprintf(w, "distboundd_requests_total{endpoint=\"query\"} %d\n", st.Requests["query"])
	fmt.Fprintf(w, "distboundd_requests_total{endpoint=\"batch\"} %d\n", st.Requests["batch"])
	fmt.Fprintf(w, "distboundd_requests_total{endpoint=\"append\"} %d\n", st.Requests["append"])
	fmt.Fprintf(w, "distboundd_batch_lines_total %d\n", m.batchLines.Load())
	fmt.Fprintf(w, "distboundd_result_cache_hits_total %d\n", st.ResultCache.Hits)
	fmt.Fprintf(w, "distboundd_result_cache_misses_total %d\n", st.ResultCache.Misses)
	fmt.Fprintf(w, "distboundd_result_cache_evictions_total %d\n", st.ResultCache.Evictions)
	fmt.Fprintf(w, "distboundd_dataset_epoch %d\n", st.Epoch)
	fmt.Fprintf(w, "distboundd_request_errors_total %d\n", m.errors.Load())
	fmt.Fprintf(w, "distboundd_admission_rejections_total %d\n", st.Rejections)
	fmt.Fprintf(w, "distboundd_shard_fanout_sum %d\n", st.Fanout.Contacted)
	fmt.Fprintf(w, "distboundd_shard_fanout_count %d\n", st.Fanout.Queries)
	fmt.Fprintf(w, "distboundd_shard_fanout_max %d\n", st.Fanout.Max)
	fmt.Fprintf(w, "distboundd_ranges_probed_total %d\n", st.Probes.Ranges)
	fmt.Fprintf(w, "distboundd_delta_probed_total %d\n", st.Probes.Delta)
	fmt.Fprintf(w, "distboundd_cover_builds_total %d\n", st.Covers.Builds)
	fmt.Fprintf(w, "distboundd_cover_build_seconds_total %g\n", st.Covers.BuildSeconds)
	fmt.Fprintf(w, "distboundd_cover_bytes %d\n", st.Covers.Bytes)
	p50, p90, p99 := m.percentiles()
	fmt.Fprintf(w, "distboundd_query_latency_seconds{quantile=\"0.5\"} %g\n", p50.Seconds())
	fmt.Fprintf(w, "distboundd_query_latency_seconds{quantile=\"0.9\"} %g\n", p90.Seconds())
	fmt.Fprintf(w, "distboundd_query_latency_seconds{quantile=\"0.99\"} %g\n", p99.Seconds())
	drain := 0
	if st.Draining {
		drain = 1
	}
	fmt.Fprintf(w, "distboundd_draining %d\n", drain)
}
