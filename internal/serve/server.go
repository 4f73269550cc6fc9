package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distbound"
	"distbound/internal/shard"
)

// maxBodyBytes bounds a query body; batch lines are bounded individually.
const maxBodyBytes = 1 << 20

// Server is distboundd's handler set over one Backend. Construct with
// NewServer and mount Handler on an http.Server; all methods are safe for
// concurrent use.
type Server struct {
	backend  Backend
	adm      *admission
	met      *metrics
	draining atomic.Bool
	mux      *http.ServeMux
}

// NewServer wraps backend with admission control admitting at most
// tenantLimit concurrent requests per tenant (≤ 0 disables the limiter).
func NewServer(backend Backend, tenantLimit int) *Server {
	s := &Server{
		backend: backend,
		adm:     newAdmission(tenantLimit),
		met:     &metrics{},
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/append", s.handleAppend)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the mounted route set.
func (s *Server) Handler() http.Handler { return s.mux }

// SetDraining flips the drain flag: a draining server answers /healthz with
// 503 so load balancers stop routing to it, while in-flight and
// still-arriving requests keep completing until the listener shuts down.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Close releases the backend.
func (s *Server) Close() { s.backend.Close() }

// requestContext derives the handler context: the request's own context —
// so a disconnecting client cancels its query — optionally tightened by the
// client's deadline budget header. The returned cancel must always run.
func requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	ctx := r.Context()
	h := r.Header.Get(DeadlineHeader)
	if h == "" {
		return ctx, func() {}, nil
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms < 0 {
		return nil, nil, fmt.Errorf("bad %s %q: want a non-negative integer of milliseconds", DeadlineHeader, h)
	}
	// A budget past what a Duration holds is the longest one, not an
	// overflow into an already-expired deadline.
	budget := time.Duration(math.MaxInt64)
	if ms <= math.MaxInt64/int64(time.Millisecond) {
		budget = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, budget)
	return ctx, cancel, nil
}

// tenant returns the request's admission bucket.
func tenant(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

// toShardRequest validates and maps a wire request onto the backend
// currency.
func toShardRequest(q QueryRequest) (shard.Request, error) {
	aggs, err := ParseAggs(q.Aggs)
	if err != nil {
		return shard.Request{}, err
	}
	if !(q.Bound > 0) {
		return shard.Request{}, fmt.Errorf("bound must be positive, got %v", q.Bound)
	}
	return shard.Request{Aggs: aggs, Bound: q.Bound}, nil
}

// decodeBody decodes r's body, at most maxBodyBytes, as one JSON value into
// v. Anything but whitespace after the value is refused, as on a batch line:
// a second object is not a second request.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		return fmt.Errorf("decoding request: %w", err)
	}
	return nil
}

// answerBufs pools the buffers answers render into.
var answerBufs = sync.Pool{New: func() any { return new([]byte) }}

// answer renders resp's body, then the tail only this request has: body is
// the entry's bytes on a result-cache hit, else *scratch, which the tail follows.
func answer(scratch *[]byte, req shard.Request, resp *shard.Response) (body, tail []byte, err error) {
	body, err = resp.Rendered(scratch, func(b []byte) ([]byte, error) {
		b, k, ri := appendAnswer(b, req, resp)
		if k < 0 {
			return b, nil
		}
		return b, fmt.Errorf("%s of region %d is %v, which JSON cannot carry",
			aggNames[req.Aggs[k]], ri, resp.Results[k].Value(ri))
	})
	if err != nil {
		return nil, nil, err
	}
	n := len(*scratch)
	*scratch = strconv.AppendInt(append(*scratch, `,"wall_ns":`...), resp.Wall.Nanoseconds(), 10)
	*scratch = append(*scratch, "}\n"...) // the newline encoding/json's Encoder writes
	return body, (*scratch)[n:], nil
}

// httpStatus maps an execution error onto a status code: context errors are
// the client's deadline or disconnect, a bound finer than the leaf cell is
// the client's request, anything else is the server's fault.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request, in nginx's convention
	case errors.As(err, new(*distbound.BoundTooFineError)):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.met.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(QueryResponse{Error: err.Error()}) //nolint:errcheck // best-effort error body
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.met.queries.Add(1)
	ten := tenant(r)
	if !s.adm.acquire(ten) {
		s.writeError(w, http.StatusTooManyRequests, fmt.Errorf("tenant %q is at its concurrency limit", ten))
		return
	}
	defer s.adm.release(ten)
	ctx, cancel, err := requestContext(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()

	var q QueryRequest
	if err := decodeBody(w, r, &q); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	req, err := toShardRequest(q)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	bp := answerBufs.Get().(*[]byte)
	defer answerBufs.Put(bp)
	body, tail, err := s.execute(ctx, req, bp)
	if err != nil {
		s.writeError(w, httpStatus(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)+len(tail)))
	w.Write(body) //nolint:errcheck // client disconnects surface as write errors
	w.Write(tail) //nolint:errcheck // as above
}

// batchFlushEvery is how many response lines accumulate between flushes:
// large enough to amortize the chunked writes, small enough that responses
// stream out while later lines are still being read.
const batchFlushEvery = 64

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.met.batches.Add(1)
	ten := tenant(r)
	// One admission token covers the whole stream: a batch is one request's
	// worth of tenant concurrency however many lines it carries.
	if !s.adm.acquire(ten) {
		s.writeError(w, http.StatusTooManyRequests, fmt.Errorf("tenant %q is at its concurrency limit", ten))
		return
	}
	defer s.adm.release(ten)
	ctx, cancel, err := requestContext(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	// The stream interleaves reading request lines with writing response
	// lines; without full duplex net/http closes the request body at the
	// first response write, truncating the batch.
	rc := http.NewResponseController(w)
	rc.EnableFullDuplex() //nolint:errcheck // unsupported writers just buffer more
	enc := json.NewEncoder(w)

	// Stream: one response line per request line, in order (errors inline,
	// siblings unaffected), until the request stream ends.
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64*1024), maxBodyBytes)
	bp := answerBufs.Get().(*[]byte)
	defer answerBufs.Put(bp)
	emitted := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		body, tail, err := s.batchLine(ctx, line, bp)
		if err != nil {
			err = enc.Encode(QueryResponse{Error: err.Error()})
		} else if _, err = w.Write(body); err == nil {
			_, err = w.Write(tail)
		}
		if err != nil {
			return // client went away; nothing left to stream to
		}
		if emitted++; emitted%batchFlushEvery == 0 {
			rc.Flush() //nolint:errcheck // best-effort streaming
			if ctx.Err() != nil {
				return // deadline exhausted mid-stream; emitted lines stand
			}
		}
	}
	if err := sc.Err(); err != nil {
		enc.Encode(QueryResponse{Error: fmt.Sprintf("reading request stream: %v", err)}) //nolint:errcheck // already streaming
	}
}

// execute answers req from the backend, rendered as answer does.
func (s *Server) execute(ctx context.Context, req shard.Request, scratch *[]byte) (body, tail []byte, err error) {
	t0 := time.Now()
	resp, err := s.backend.Query(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	s.met.observe(time.Since(t0))
	return answer(scratch, req, &resp)
}

// batchLine answers one NDJSON request line as execute does; a malformed or
// failing line returns the error its inline error line carries.
func (s *Server) batchLine(ctx context.Context, line []byte, scratch *[]byte) (body, tail []byte, err error) {
	var q QueryRequest
	var req shard.Request
	if err = json.Unmarshal(line, &q); err == nil {
		req, err = toShardRequest(q)
	}
	if err == nil {
		body, tail, err = s.execute(ctx, req, scratch)
	}
	if err != nil {
		s.met.errors.Add(1)
		return nil, nil, err
	}
	s.met.batchLines.Add(1)
	return body, tail, nil
}

// handleAppend ingests points over the wire. The backend bumps its epoch on
// success, so every cached result predating the append is stranded — the
// handler is what lets clients (and the CI cache smoke) invalidate the
// result cache end to end.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	s.met.appends.Add(1)
	ten := tenant(r)
	if !s.adm.acquire(ten) {
		s.writeError(w, http.StatusTooManyRequests, fmt.Errorf("tenant %q is at its concurrency limit", ten))
		return
	}
	defer s.adm.release(ten)

	var q appendBody
	if err := decodeBody(w, r, &q); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(q.Points) == 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("append needs at least one point"))
		return
	}
	pts := make([]distbound.Point, len(q.Points))
	for i, p := range q.Points {
		if !p[0].set || !p[1].set || p[2].set {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("point %d is not [x, y]: exactly two numbers", i))
			return
		}
		pts[i] = distbound.Pt(p[0].v, p[1].v)
	}
	var ws []float64 // nil for a body without weights, as the backend expects
	if q.Weights != nil {
		ws = make([]float64, len(q.Weights))
		for i, wt := range q.Weights {
			if !wt.set {
				s.writeError(w, http.StatusBadRequest, fmt.Errorf("weight %d is not a number", i))
				return
			}
			ws[i] = wt.v
		}
	}
	ids, err := s.backend.Append(pts, ws)
	// IDs align with the request's points; a partial failure across shards
	// still reports the rows that landed (NoID for the rest) beside its error.
	var out AppendResponse
	out.IDs = slices.Grow(out.IDs, len(ids))
	for _, id := range ids {
		out.IDs = append(out.IDs, strconv.FormatUint(id, 10))
		if id != shard.NoID {
			out.Appended++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if err != nil {
		// A healthy store refuses an append for what the request carries —
		// weight-column mismatch, out-of-domain point; a wedged one refuses
		// every append, which is the server's fault and /healthz's answer.
		status := http.StatusBadRequest
		if werr := s.backend.Healthy(); werr != nil {
			status, err = http.StatusServiceUnavailable, fmt.Errorf("wedged: %w", werr)
		}
		s.met.errors.Add(1)
		out.Error = err.Error()
		w.WriteHeader(status)
	}
	json.NewEncoder(w).Encode(out) //nolint:errcheck // client disconnects surface as write errors
}

// stats is one snapshot of the server and its backend: the body /v1/stats
// serves and the state /metrics renders.
func (s *Server) stats() StatsResponse {
	st := StatsResponse{
		Requests: map[string]uint64{
			"query":  s.met.queries.Load(),
			"batch":  s.met.batches.Load(),
			"append": s.met.appends.Load(),
		},
		Rejections: s.adm.rejections.Load(),
		Draining:   s.draining.Load(),
	}
	s.backend.Describe(&st)
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.stats()) //nolint:errcheck // client disconnects surface as write errors
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	// A wedged store still answers queries but refuses every mutation; a
	// load balancer must stop treating it as a healthy writer.
	if err := s.backend.Healthy(); err != nil {
		http.Error(w, "wedged: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n")) //nolint:errcheck // health probe
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	st := s.stats()
	s.met.render(w, &st)
}
