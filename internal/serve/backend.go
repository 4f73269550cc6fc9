package serve

import (
	"context"

	"distbound"
	"distbound/internal/shard"
)

// Backend is what the handlers serve. ShardedBackend — a shard.Sharded at
// any partition width, one shard included — is the only implementation the
// daemon runs; the interface stays so tests and the benchmark's tracer can
// substitute or wrap it.
type Backend interface {
	// Query answers one aggregation request under ctx.
	Query(ctx context.Context, req shard.Request) (shard.Response, error)
	// Append adds points to the dataset — weights iff it carries a weight
	// column — returning the assigned IDs. Every successful append moves the
	// epoch, stranding cached results.
	Append(pts []distbound.Point, weights []float64) ([]uint64, error)
	// Healthy reports the sticky durable-log failure (DatasetStats.DurableErr
	// of the first wedged shard) that makes the backend refuse every
	// mutation; nil while writes are being accepted.
	Healthy() error
	// Describe fills the backend half of a stats response — the dataset,
	// its epoch, the result and cover caches, the scatter's fan-out and
	// probe work — from one snapshot.
	Describe(st *StatsResponse)
	// Close releases the backend's datasets.
	Close()
}

// ShardedBackend serves a shard.Sharded.
type ShardedBackend struct {
	S *shard.Sharded
}

func (b *ShardedBackend) Query(ctx context.Context, req shard.Request) (shard.Response, error) {
	return b.S.Do(ctx, req)
}

func (b *ShardedBackend) Append(pts []distbound.Point, weights []float64) ([]uint64, error) {
	return b.S.Append(pts, weights)
}

func (b *ShardedBackend) Healthy() error { return b.S.DurableErr() }

func (b *ShardedBackend) Describe(st *StatsResponse) {
	s := b.S.Stats()
	st.Backend = "sharded"
	st.Dataset = b.S.Name()
	st.Regions = b.S.NumRegions()
	st.Live = s.Live
	st.Dropped = s.Dropped
	st.MemoryBytes = s.MemoryBytes
	st.Epoch = s.EpochSum
	st.Shards = s.PerShard
	st.ResultCache = CacheCounters{Hits: s.ResultCache.Hits, Misses: s.ResultCache.Misses, Evictions: s.ResultCache.Evictions}
	st.Fanout = FanoutCounters{Queries: s.Queries, Contacted: s.ContactedTotal, Max: s.MaxFanOut}
	st.Probes = ProbeCounters{Ranges: s.RangesProbed, Delta: s.DeltaProbed}
	st.Covers = CoverCounters{Builds: s.Covers.Builds, BuildSeconds: s.Covers.BuildTime.Seconds(), Bytes: s.CoverBytes}
	for _, sh := range s.PerShard {
		st.Covers.StateBytes += sh.CoverStateBytes
	}
}

func (b *ShardedBackend) Close() { b.S.Close() }
