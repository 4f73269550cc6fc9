package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"

	"distbound"
	"distbound/internal/serve"
	"distbound/internal/shard"
)

// opTrace names the request in flight on the traced stack. The traced
// client is strictly sequential, so one slot is enough for the handler and
// the backend to find the span that caused them.
type opTrace struct {
	kind    string // "miss", "hit" or "append"
	op      int
	client  int // the client's span
	handler int // the handler's span, once it runs
}

// tracedStack is the serving stack in process — internal/serve's handlers
// over a sharded backend, behind a real loopback listener — with a span at
// each boundary the harness can reach from outside: the client's round
// trip, the handler, and the backend call under it.
type tracedStack struct {
	serve.Backend
	tr  *tracer
	cur atomic.Pointer[opTrace]
}

func (s *tracedStack) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op := s.cur.Load()
		if op == nil || r.Method != http.MethodPost {
			next.ServeHTTP(w, r)
			return
		}
		op.handler = s.tr.begin("serve."+op.kind, op.client, op.op)
		next.ServeHTTP(w, r)
		s.tr.end(op.handler)
	})
}

// backendSpan opens the backend call's span under the handler's; requests
// made outside call (the first query per bound) are not traced.
func (s *tracedStack) backendSpan() (end func()) {
	op := s.cur.Load()
	if op == nil {
		return func() {}
	}
	id := s.tr.begin("shard."+op.kind, op.handler, op.op)
	return func() { s.tr.end(id) }
}

func (s *tracedStack) Query(ctx context.Context, req shard.Request) (shard.Response, error) {
	defer s.backendSpan()()
	return s.Backend.Query(ctx, req)
}

func (s *tracedStack) Append(pts []distbound.Point, weights []float64) ([]uint64, error) {
	defer s.backendSpan()()
	return s.Backend.Append(pts, weights)
}

// servedLayers: internal/shard, internal/serve and net/http, by replaying
// serve_ingest's cycle — append, read every shape (a miss that scatters on
// the delta path), read every shape again (a hit) — against the traced
// stack. Self times come from the spans: transport is the client's span
// minus the handler's, the handler's self time is what remains outside the
// backend call.
func (l *layerRun) servedLayers() {
	var sh *shard.Sharded
	l.rep.set("shard.new_s", secondsOf(func() {
		var err error
		sh, _, err = shard.New("layers", l.regions, l.pts, l.ws, 4)
		l.try("shard.New", err)
	}), "s")
	if l.err != nil {
		return
	}
	stack := &tracedStack{Backend: &serve.ShardedBackend{S: sh}, tr: l.tr}
	server := serve.NewServer(stack, 0)
	defer server.Close() // closes the backend, and with it the shards
	dataDir := filepath.Join(l.env.tmp, "shards")
	if !l.try("shard.Persist", sh.Persist(dataDir, distbound.PersistConfig{})) {
		return
	}
	ts := httptest.NewServer(stack.middleware(server.Handler()))
	defer ts.Close()
	c := newClient(ts.URL)
	defer c.close()

	// First query per bound: every shard builds its own cover plan.
	shapes := ingestShapes
	bodies := make([][]byte, len(shapes))
	cover := 0.0
	for i, s := range shapes {
		bodies[i] = s.wire()
		lat, err := c.query(bodies[i])
		if !l.try(fmt.Sprintf("first %v", s), err) {
			return
		}
		cover += lat.Seconds()
	}
	l.rep.set("shard.cover_build_s", cover, "s")
	l.rep.set("shard.memory_mb", float64(sh.MemoryBytes())/(1<<20), "MB")
	before := sh.Stats()

	opID := 0
	call := func(kind string, f func() error) error {
		op := &opTrace{kind: kind, op: opID}
		opID++
		l.rep.attempted++
		op.client = l.tr.begin("client."+kind, -1, op.op)
		stack.cur.Store(op)
		err := f()
		l.tr.end(op.client)
		stack.cur.Store(nil)
		return err
	}
	cycles := max(10, l.env.sc.ingestCycles(l.env.seconds)/4)
	var appendLat, missLat []float64
	bytesOut, answers := 0, 0
	l.env.host.sample()
	for k := 0; k < cycles; k++ {
		body := appendBody(l.env.sc, l.env.seed, k)
		err := call("append", func() error {
			lat, _, err := c.appendRows(body)
			appendLat = append(appendLat, ms(lat))
			return err
		})
		if !l.try(fmt.Sprintf("traced append %d", k), err) {
			return
		}
		for _, kind := range []string{"miss", "hit"} {
			for i := range shapes {
				err := call(kind, func() error {
					lat, err := c.query(bodies[i])
					if kind == "miss" {
						missLat = append(missLat, ms(lat))
					}
					return err
				})
				if !l.try(fmt.Sprintf("traced %s %v", kind, shapes[i]), err) {
					return
				}
				bytesOut += c.buf.Len()
				answers++
			}
		}
	}
	l.env.host.sample()

	total, self := l.tr.byName()
	l.rep.set("http.transport_ms", median(append(self["client.miss"], self["client.hit"]...)), "ms")
	l.rep.set("serve.query_handler_ms", median(total["serve.miss"]), "ms")
	l.rep.set("serve.query_self_ms", median(self["serve.miss"]), "ms")
	l.rep.set("serve.hit_handler_ms", median(total["serve.hit"]), "ms")
	l.rep.set("serve.append_self_ms", median(self["serve.append"]), "ms")
	l.rep.set("serve.response_bytes", float64(bytesOut)/float64(answers), "count")
	l.rep.set("shard.do_ms", median(total["shard.miss"]), "ms")
	l.rep.set("shard.hit_do_us", 1e3*median(total["shard.hit"]), "us")
	l.rep.set("shard.append_ms", median(total["shard.append"]), "ms")

	st := sh.Stats()
	l.rep.set("shard.fanout_mean", float64(st.ContactedTotal-before.ContactedTotal)/float64(len(missLat)), "count")
	stats, err := c.stats()
	if !l.try("/v1/stats", err) {
		return
	}
	rc := stats.ResultCache
	l.rep.set("cache.hit_ratio", float64(rc.Hits)/float64(max(rc.Hits+rc.Misses, 1)), "ratio")
	l.rep.set("cache.evictions", float64(rc.Evictions), "count")

	// The tail numbers serve_ingest prints but does not gate: they moved by
	// 10 % and more between runs of the same build.
	app, miss := sortedCopy(appendLat), sortedCopy(missLat)
	l.rep.set("ingest.append_p50_ms", quantile(app, 0.50), "ms")
	l.rep.set("ingest.append_p95_ms", quantile(app, 0.95), "ms")
	l.rep.set("ingest.append_p99_ms", quantile(app, 0.99), "ms")
	l.rep.set("ingest.append_max_ms", app[len(app)-1], "ms")
	l.rep.set("ingest.query_p99_ms", quantile(miss, 0.99), "ms")
	var compactions uint64
	for i, s := range st.PerShard {
		compactions += s.Generation - before.PerShard[i].Generation
	}
	l.rep.set("ingest.compactions", float64(compactions), "count")
	disk, err := dirBytes(dataDir)
	if !l.try("shard dir", err) {
		return
	}
	l.rep.set("ingest.disk_bytes_per_row", float64(disk)/float64(st.Live), "B")
}
