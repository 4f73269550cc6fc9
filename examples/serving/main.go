// Serving: stand up a sharded distboundd in-process and drive it over real
// HTTP — one JSON query with a deadline budget, one streamed NDJSON batch,
// and the stats endpoint showing the shard layout. The same requests work
// against a daemon started with `go run ./cmd/distboundd`.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"distbound/internal/data"
	"distbound/internal/serve"
	"distbound/internal/shard"
)

func main() {
	// A sharded dataset: 16 districts tiling the city, 50k taxi pickups
	// with fares, partitioned into 4 contiguous SFC key-range shards.
	districts := data.Regions(data.Partition(7, 4, 4, 8))
	pts, fares := data.TaxiPoints(7, 50_000)
	sharded, _, err := shard.New("taxi", districts, pts, fares, 4)
	if err != nil {
		log.Fatal(err)
	}
	defer sharded.Close()

	// The same handler set cmd/distboundd mounts, on a loopback listener.
	server := serve.NewServer(&serve.ShardedBackend{S: sharded}, 8 /* per-tenant concurrency */)
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	fmt.Printf("serving %d points in %d shards on %s\n\n", sharded.Len(), sharded.NumShards(), ts.URL)

	// One query: COUNT and AVG fare per district within a 64 m bound, with
	// a tenant name and a 2-second deadline budget.
	body, _ := json.Marshal(serve.QueryRequest{Aggs: []string{"count", "avg"}, Bound: 64})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/query", bytes.NewReader(body))
	req.Header.Set(serve.TenantHeader, "example")
	req.Header.Set(serve.DeadlineHeader, "2000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	var q serve.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("query touched %d/%d shards in %.2f ms\n",
		q.ShardsContacted, q.ShardsTotal, float64(q.WallNs)/1e6)
	for _, r := range q.Results {
		fmt.Printf("  %-5s district 0: %.2f (of %d pickups)\n", r.Agg, r.Values[0], r.Counts[0])
	}

	// One streamed batch: three bounds down one connection, one NDJSON
	// response line per request line. A level is a floor: the ε16 line
	// builds a finer cover than the ε64 query's, and the ε32 line, whose own
	// level is not resident, is served from it — its served_bound is the
	// ε16 line's.
	var in bytes.Buffer
	for _, bound := range []float64{16, 32, 64} {
		line, _ := json.Marshal(serve.QueryRequest{Aggs: []string{"count"}, Bound: bound})
		in.Write(line)
		in.WriteByte('\n')
	}
	bresp, err := http.Post(ts.URL+"/v1/batch", "application/x-ndjson", &in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbatch:")
	dec := json.NewDecoder(bresp.Body)
	for dec.More() {
		var line serve.QueryResponse
		if err := dec.Decode(&line); err != nil {
			log.Fatal(err)
		}
		total := int64(0)
		for _, c := range line.Results[0].Counts {
			total += c
		}
		fmt.Printf("  %d matches across districts, %d/%d shards, served_bound %.2f m\n",
			total, line.ShardsContacted, line.ShardsTotal, line.ServedBound)
	}
	bresp.Body.Close()

	// The stats endpoint exposes the shard layout the scatter fans out over.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		log.Fatal(err)
	}
	var st serve.StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	sresp.Body.Close()
	fmt.Printf("\n%s backend, %d live points:\n", st.Backend, st.Live)
	for i, sh := range st.Shards {
		fmt.Printf("  shard %d: keys [%d, %d], %d points (generation %d)\n",
			i, sh.LoKey, sh.HiKey, sh.Live, sh.Generation)
	}
}
