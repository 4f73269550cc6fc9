// distboundd serves distance-bounded spatial aggregation over HTTP: a
// synthetic (or disk-recovered) resident dataset, partitioned into SFC
// key-range shards, behind JSON query/batch/stats/health/metrics endpoints
// with per-tenant admission control, deadline propagation and graceful
// drain. See the README's "Serving" section for the protocol.
//
// Typical runs:
//
//	distboundd -addr :7080 -points 200000 -shards 8 -weights
//	distboundd -addr :7080 -shards 8 -weights -data /var/lib/distbound/taxi
//
// With -data, the first run partitions and persists under the directory and
// later runs recover from it (write-ahead logged mutations included), at any
// -shards: -shards 1 is a one-shard partition, not a different backend.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"distbound"
	"distbound/internal/data"
	"distbound/internal/serve"
	"distbound/internal/shard"
)

func main() {
	var (
		addr        = flag.String("addr", ":7080", "listen address")
		points      = flag.Int("points", 100_000, "synthetic taxi point count")
		seed        = flag.Int64("seed", 1, "synthetic data seed")
		grid        = flag.String("grid", "4x4", "region partition of the city as COLSxROWS")
		verts       = flag.Int("verts", 12, "jittered vertices per region edge")
		weights     = flag.Bool("weights", false, "attach a weight column (enables SUM/AVG/MIN/MAX)")
		shards      = flag.Int("shards", 8, "key-range shard count (1 = a one-shard partition; ignored when -data holds a manifest, which fixes the width)")
		tenantLimit = flag.Int("tenant-limit", 0, "max concurrent requests per tenant; exceeding tenants get 429 (0 = unlimited)")
		dataDir     = flag.String("data", "", "durable dataset directory: recovered when it holds a manifest, created and persisted otherwise")
		cacheCap    = flag.Int("result-cache", distbound.DefaultResultCacheCapacity, "result cache capacity in entries; repeated identical queries are served without re-executing until a mutation bumps the epoch (0 disables)")
		drainWait   = flag.Duration("drain-timeout", 10*time.Second, "how long SIGTERM waits for in-flight requests before closing")
	)
	flag.Parse()
	if err := run(*addr, *points, *seed, *grid, *verts, *weights, *shards, *tenantLimit, *dataDir, *cacheCap, *drainWait); err != nil {
		log.Fatal(err)
	}
}

func run(addr string, points int, seed int64, grid string, verts int, weights bool, shards, tenantLimit int, dataDir string, cacheCap int, drainWait time.Duration) error {
	var cols, rows int
	if _, err := fmt.Sscanf(grid, "%dx%d", &cols, &rows); err != nil || cols < 1 || rows < 1 {
		return fmt.Errorf("bad -grid %q: want COLSxROWS, e.g. 4x4", grid)
	}
	regions := data.Regions(data.Partition(seed, cols, rows, verts))

	if cacheCap < 0 {
		return fmt.Errorf("distboundd: -result-cache must be non-negative")
	}
	dataset, err := buildDataset(regions, points, seed, weights, shards, dataDir)
	if err != nil {
		return err
	}
	// The merged scatter-gather cache is the one result cache on any path
	// (the engine keeps none); 0 makes every request execute on the shards.
	dataset.SetResultCacheCapacity(cacheCap)
	server := serve.NewServer(&serve.ShardedBackend{S: dataset}, tenantLimit)
	defer server.Close()

	srv := &http.Server{
		Addr:              addr,
		Handler:           server.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	// SIGTERM/SIGINT begin the drain: health flips to 503 so load balancers
	// stop routing here, then Shutdown stops the listener and waits for
	// in-flight requests up to the drain budget.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("distboundd: serving %s on %s (%d shards, tenant limit %d)",
		dataset.Name(), addr, dataset.NumShards(), tenantLimit)

	select {
	case err := <-errc:
		return fmt.Errorf("distboundd: %w", err)
	case <-ctx.Done():
	}
	log.Printf("distboundd: draining (up to %v)", drainWait)
	server.SetDraining(true)
	shutCtx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("distboundd: drain: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("distboundd: %w", err)
	}
	log.Printf("distboundd: drained, bye")
	return nil
}

// buildDataset assembles the sharded dataset the server fronts: recovered
// from dataDir when a manifest is present — the manifest, not shards, then
// fixes the partition width — synthesized (and, with dataDir, persisted)
// otherwise.
func buildDataset(regions []distbound.Region, points int, seed int64, weights bool, shards int, dataDir string) (*shard.Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("distboundd: -shards must be at least 1")
	}
	if dataDir != "" {
		if _, err := os.Stat(filepath.Join(dataDir, "MANIFEST.json")); err == nil {
			s, err := shard.Open(regions, dataDir, distbound.PersistConfig{})
			if err != nil {
				return nil, fmt.Errorf("distboundd: recovering %s: %w", dataDir, err)
			}
			log.Printf("distboundd: recovered %d points in %d shards from %s", s.Len(), s.NumShards(), dataDir)
			return s, nil
		}
	}

	pts, ws := data.TaxiPoints(seed, points)
	if !weights {
		ws = nil
	}
	s, _, err := shard.New("taxi", regions, pts, ws, shards)
	if err != nil {
		return nil, fmt.Errorf("distboundd: %w", err)
	}
	if dataDir != "" {
		if err := s.Persist(dataDir, distbound.PersistConfig{}); err != nil {
			return nil, fmt.Errorf("distboundd: persisting to %s: %w", dataDir, err)
		}
		log.Printf("distboundd: persisted %d shards under %s", s.NumShards(), dataDir)
	}
	return s, nil
}
