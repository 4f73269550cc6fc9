package serve

import (
	"context"
	"fmt"

	"distbound"
	"distbound/internal/cache"
	"distbound/internal/shard"
)

// Backend is what the handlers serve: either a sharded dataset
// (scatter-gather over shard.Sharded.Do) or a single resident dataset
// (Engine.Do / Engine.DoBatch on the point-index strategy). Both speak
// shard.Request/Response so the handlers, metrics and clients are
// indifferent to the partition width — an unsharded backend just always
// reports a 1/1 fan-out.
type Backend interface {
	// Mode names the backend ("sharded" or "unsharded") for stats.
	Mode() string
	// Query answers one aggregation request under ctx.
	Query(ctx context.Context, req shard.Request) (shard.Response, error)
	// Batch answers many requests, pairing each with its own outcome — a
	// failed request never aborts its siblings, mirroring DoBatch.
	Batch(ctx context.Context, reqs []shard.Request) ([]shard.Response, []error)
	// Append adds points to the dataset — weights iff it carries a weight
	// column — returning the assigned IDs. Every successful append bumps
	// Epoch, stranding cached results.
	Append(pts []distbound.Point, weights []float64) ([]uint64, error)
	// Epoch is the dataset's mutation counter (the per-shard sum on a
	// sharded backend) — the result cache's invalidation currency.
	Epoch() uint64
	// ResultCacheStats reports the backend's result-cache counters: the
	// merged scatter-gather cache when sharded, the engine cache when not.
	ResultCacheStats() cache.Stats
	// Healthy reports the sticky durable-log failure (DatasetStats.DurableErr
	// of the dataset, or of the first wedged shard) that makes the backend
	// refuse every mutation; nil while writes are being accepted.
	Healthy() error
	// Describe fills the dataset half of a stats response.
	Describe(st *StatsResponse)
	// Close releases the backend's datasets.
	Close()
}

// ShardedBackend serves a shard.Sharded.
type ShardedBackend struct {
	S *shard.Sharded
}

func (b *ShardedBackend) Mode() string { return "sharded" }

func (b *ShardedBackend) Query(ctx context.Context, req shard.Request) (shard.Response, error) {
	return b.S.Do(ctx, req)
}

func (b *ShardedBackend) Batch(ctx context.Context, reqs []shard.Request) ([]shard.Response, []error) {
	resps := make([]shard.Response, len(reqs))
	errs := make([]error, len(reqs))
	for i := range reqs {
		// Each request already scatters across shards; running the batch
		// lines in order keeps the stream's responses aligned with its
		// requests without buffering.
		resps[i], errs[i] = b.S.Do(ctx, reqs[i])
	}
	return resps, errs
}

func (b *ShardedBackend) Append(pts []distbound.Point, weights []float64) ([]uint64, error) {
	return b.S.Append(pts, weights)
}

func (b *ShardedBackend) Epoch() uint64 { return b.S.EpochSum() }

func (b *ShardedBackend) ResultCacheStats() cache.Stats { return b.S.CacheStats() }

func (b *ShardedBackend) Healthy() error { return b.S.DurableErr() }

func (b *ShardedBackend) Describe(st *StatsResponse) {
	s := b.S.Stats()
	st.Dataset = b.S.Name()
	st.Regions = b.S.NumRegions()
	st.Live = s.Live
	st.Dropped = s.Dropped
	st.MemoryBytes = b.S.MemoryBytes()
	st.Covers = CoverCounters{Builds: s.Covers.Builds, BuildSeconds: s.Covers.BuildTime.Seconds(), Bytes: s.CoverBytes}
	for _, sh := range s.PerShard {
		st.Shards = append(st.Shards, ShardStats{
			LoKey: sh.LoKey, HiKey: sh.HiKey, Live: sh.Live,
			Generation: sh.Generation, Epoch: sh.Epoch,
			CoverStateBytes: sh.CoverStateBytes,
		})
		st.Covers.StateBytes += sh.CoverStateBytes
	}
}

func (b *ShardedBackend) Close() { b.S.Close() }

// UnshardedBackend serves one resident dataset through Engine.Do and
// Engine.DoBatch, pinned to the point-index strategy — the same physical
// plan the shards run, so a sharded-vs-unsharded head-to-head measures the
// partitioning, not a plan change.
type UnshardedBackend struct {
	E  *distbound.Engine
	DS *distbound.Dataset
}

func (b *UnshardedBackend) Mode() string { return "unsharded" }

// engineRequest maps the serving currency onto a distbound.Request.
func (b *UnshardedBackend) engineRequest(req shard.Request) (distbound.Request, error) {
	if !(req.Bound > 0) {
		return distbound.Request{}, fmt.Errorf("serving requires a positive bound, got %v", req.Bound)
	}
	strat := distbound.StrategyPointIdx
	return distbound.Request{
		Dataset:     b.DS,
		Aggs:        req.Aggs,
		Bound:       req.Bound,
		Repetitions: req.Repetitions,
		Strategy:    &strat,
		Workers:     req.Workers,
	}, nil
}

// detach deep-copies a pooled engine response into the serving currency and
// releases the original, so handlers may hold results past the next query.
func detach(resp distbound.Response) shard.Response {
	out := shard.Response{
		ShardsContacted: 1,
		ShardsTotal:     1,
		RangesProbed:    resp.RangesProbed,
		DeltaProbed:     resp.DeltaProbed,
		Wall:            resp.Wall,
		Results:         make([]distbound.Result, len(resp.Results)),
	}
	for i, r := range resp.Results {
		out.Results[i] = distbound.Result{
			Agg:    r.Agg,
			Counts: append([]int64(nil), r.Counts...),
		}
		if r.Sums != nil {
			out.Results[i].Sums = append([]float64(nil), r.Sums...)
		}
		if r.Extremes != nil {
			out.Results[i].Extremes = append([]float64(nil), r.Extremes...)
		}
	}
	resp.Release()
	return out
}

func (b *UnshardedBackend) Query(ctx context.Context, req shard.Request) (shard.Response, error) {
	er, err := b.engineRequest(req)
	if err != nil {
		return shard.Response{}, err
	}
	resp, err := b.E.Do(ctx, er)
	if err != nil {
		return shard.Response{}, err
	}
	return detach(resp), nil
}

func (b *UnshardedBackend) Batch(ctx context.Context, reqs []shard.Request) ([]shard.Response, []error) {
	out := make([]shard.Response, len(reqs))
	errs := make([]error, len(reqs))
	ers := make([]distbound.Request, 0, len(reqs))
	idx := make([]int, 0, len(reqs))
	for i := range reqs {
		er, err := b.engineRequest(reqs[i])
		if err != nil {
			errs[i] = err
			continue
		}
		ers = append(ers, er)
		idx = append(idx, i)
	}
	if len(ers) == 0 {
		return out, errs
	}
	resps, err := b.E.DoBatch(ctx, ers, 0)
	if err != nil {
		for _, i := range idx {
			errs[i] = err
		}
		return out, errs
	}
	for k, i := range idx {
		if resps[k].Err != nil {
			errs[i] = resps[k].Err
			continue
		}
		out[i] = detach(resps[k])
	}
	return out, errs
}

func (b *UnshardedBackend) Append(pts []distbound.Point, weights []float64) ([]uint64, error) {
	return b.DS.Append(pts, weights)
}

func (b *UnshardedBackend) Epoch() uint64 { return b.DS.Epoch() }

func (b *UnshardedBackend) ResultCacheStats() cache.Stats { return b.E.ResultCacheStats() }

func (b *UnshardedBackend) Healthy() error { return b.DS.Stats().DurableErr }

func (b *UnshardedBackend) Describe(st *StatsResponse) {
	s := b.DS.Stats()
	st.Dataset = b.DS.Name()
	st.Regions = b.E.NumRegions()
	st.Live = s.Live
	st.Dropped = b.DS.Dropped()
	st.MemoryBytes = b.DS.MemoryBytes()
	_, _, cs := b.E.CacheStats()
	st.Covers = CoverCounters{Builds: cs.Builds, BuildSeconds: cs.BuildTime.Seconds(), Bytes: b.E.CoverBytes(), StateBytes: s.CoverStateBytes}
}

func (b *UnshardedBackend) Close() { b.E.UnregisterPoints(b.DS.Name()) }
