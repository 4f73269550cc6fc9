package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"distbound/internal/cache"
	"distbound/internal/shard"
)

// latRingSize bounds the latency sample window the percentiles summarize;
// a power of two keeps the ring arithmetic trivial.
const latRingSize = 4096

// metrics is the server's observable state: per-endpoint request counters,
// scatter fan-out accounting, and a fixed-size ring of recent query
// latencies the percentile gauges summarize. Everything is lock-free
// except the ring, whose short critical sections bound the hot-path cost.
type metrics struct {
	queries    atomic.Uint64
	batches    atomic.Uint64
	batchLines atomic.Uint64
	appends    atomic.Uint64
	errors     atomic.Uint64

	fanoutSum   atomic.Uint64
	fanoutCount atomic.Uint64 // observed executions, the fan-out mean's denominator
	fanoutMax   atomic.Uint64

	// Probe work summed over executed queries (shard.Response's counters):
	// cover ranges probed by base fills and delta rows newly inverted.
	// Against the request counters they give the resident path's warm ratio.
	rangesProbed atomic.Uint64
	deltaProbed  atomic.Uint64

	mu    sync.Mutex
	ring  [latRingSize]time.Duration
	next  int
	count int
}

// observe records one finished query execution. A result-cache hit and a
// warm resident read carry zero probe counters and skip those adds.
func (m *metrics) observe(d time.Duration, resp *shard.Response) {
	if resp.RangesProbed > 0 {
		m.rangesProbed.Add(uint64(resp.RangesProbed))
	}
	if resp.DeltaProbed > 0 {
		m.deltaProbed.Add(uint64(resp.DeltaProbed))
	}
	contacted := uint64(resp.ShardsContacted)
	m.fanoutSum.Add(contacted)
	m.fanoutCount.Add(1)
	for {
		cur := m.fanoutMax.Load()
		if contacted <= cur || m.fanoutMax.CompareAndSwap(cur, contacted) {
			break
		}
	}
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

// render writes the counters in the text exposition format /metrics serves.
// cacheStats, epoch and covers come from the backend — the result cache, its
// invalidation counter and the cover cache live below the handler layer.
func (m *metrics) render(w io.Writer, rejections uint64, draining bool, cacheStats cache.Stats, epoch uint64, covers CoverCounters) {
	fmt.Fprintf(w, "distboundd_requests_total{endpoint=\"query\"} %d\n", m.queries.Load())
	fmt.Fprintf(w, "distboundd_requests_total{endpoint=\"batch\"} %d\n", m.batches.Load())
	fmt.Fprintf(w, "distboundd_requests_total{endpoint=\"append\"} %d\n", m.appends.Load())
	fmt.Fprintf(w, "distboundd_batch_lines_total %d\n", m.batchLines.Load())
	fmt.Fprintf(w, "distboundd_result_cache_hits_total %d\n", cacheStats.Hits)
	fmt.Fprintf(w, "distboundd_result_cache_misses_total %d\n", cacheStats.Misses)
	fmt.Fprintf(w, "distboundd_result_cache_evictions_total %d\n", cacheStats.Evictions)
	fmt.Fprintf(w, "distboundd_dataset_epoch %d\n", epoch)
	fmt.Fprintf(w, "distboundd_request_errors_total %d\n", m.errors.Load())
	fmt.Fprintf(w, "distboundd_admission_rejections_total %d\n", rejections)
	fmt.Fprintf(w, "distboundd_shard_fanout_sum %d\n", m.fanoutSum.Load())
	fmt.Fprintf(w, "distboundd_shard_fanout_count %d\n", m.fanoutCount.Load())
	fmt.Fprintf(w, "distboundd_shard_fanout_max %d\n", m.fanoutMax.Load())
	fmt.Fprintf(w, "distboundd_ranges_probed_total %d\n", m.rangesProbed.Load())
	fmt.Fprintf(w, "distboundd_delta_probed_total %d\n", m.deltaProbed.Load())
	fmt.Fprintf(w, "distboundd_cover_builds_total %d\n", covers.Builds)
	fmt.Fprintf(w, "distboundd_cover_build_seconds_total %g\n", covers.BuildSeconds)
	fmt.Fprintf(w, "distboundd_cover_bytes %d\n", covers.Bytes)
	p50, p90, p99 := m.percentiles()
	fmt.Fprintf(w, "distboundd_query_latency_seconds{quantile=\"0.5\"} %g\n", p50.Seconds())
	fmt.Fprintf(w, "distboundd_query_latency_seconds{quantile=\"0.9\"} %g\n", p90.Seconds())
	fmt.Fprintf(w, "distboundd_query_latency_seconds{quantile=\"0.99\"} %g\n", p99.Seconds())
	drain := 0
	if draining {
		drain = 1
	}
	fmt.Fprintf(w, "distboundd_draining %d\n", drain)
}
