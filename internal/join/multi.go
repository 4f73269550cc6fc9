package join

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"distbound/internal/index/rstar"
	"distbound/internal/pool"
)

// Multi-aggregate evaluation: the expensive part of every strategy — the trie
// lookup, the R*-tree descent + PIP refinement, the canvas scatter, the
// cover-range boundary sweep — depends only on the point's location, never on
// which aggregate is being computed. AggregateMulti therefore runs ONE pass
// and folds every requested aggregate from it: prefix-sum aggregates share
// the lookups, MIN/MAX share the block scans. Results are positionally
// aligned with the aggregate set and bit-identical to running each aggregate
// alone (COUNT/MIN/MAX exactly; SUM/AVG fold in the identical order, so even
// float results match bit-for-bit).
//
// Every AggregateMulti takes a context: cancellation unwinds the worker
// fan-out promptly (workers poll between regions / every cancelCheckMask+1
// points) and the call returns ctx.Err() only after every worker has exited,
// so no goroutine outlives the call and no partial result escapes.
//
// Parallel evaluation (§2.3 "Execution"): because every point lookup — and
// every canvas pixel — is independent, and COUNT/SUM/AVG are distributive or
// algebraic, the aggregation join decomposes into shard-local partial
// aggregates that merge exactly. The parallel forms return bit-identical
// counts and float-sum results that differ from the sequential ones only by
// re-association of additions.

// cancelCheckMask throttles per-point context polls: workers check
// ctx.Done() every 8192 points, cheap enough to vanish in the fold cost yet
// frequent enough for sub-millisecond cancellation.
const cancelCheckMask = 8191

// ExtremeIn reports whether the aggregate set contains MIN or MAX — the
// set-level form of the per-aggregate extreme test: one multi-fold pass can
// use the raster join only if no aggregate in the set needs an extreme.
func ExtremeIn(aggs []Agg) bool {
	for _, a := range aggs {
		if a == Min || a == Max {
			return true
		}
	}
	return false
}

// aggNeeds records which accumulator columns an aggregate set requires.
type aggNeeds struct {
	sum, min, max bool
}

func needsOf(aggs []Agg) aggNeeds {
	var n aggNeeds
	for _, a := range aggs {
		switch a {
		case Sum, Avg:
			n.sum = true
		case Min:
			n.min = true
		case Max:
			n.max = true
		}
	}
	return n
}

// acc is the shared-column accumulator of a multi-aggregate fold: counts are
// always kept, the other columns only when some aggregate needs them. add
// applies exactly the updates Result.add would, in the same order, which is
// what makes the final per-aggregate copies bit-identical to per-aggregate
// runs.
type acc struct {
	counts []int64
	sums   []float64
	mins   []float64
	maxs   []float64
}

func newAcc(needs aggNeeds, n int) acc {
	a := acc{counts: make([]int64, n)}
	if needs.sum {
		a.sums = make([]float64, n)
	}
	if needs.min {
		a.mins = make([]float64, n)
		for i := range a.mins {
			a.mins[i] = math.Inf(1)
		}
	}
	if needs.max {
		a.maxs = make([]float64, n)
		for i := range a.maxs {
			a.maxs[i] = math.Inf(-1)
		}
	}
	return a
}

// add records a matched point for a region across every tracked column.
func (a *acc) add(region int, w float64) {
	a.counts[region]++
	if a.sums != nil {
		a.sums[region] += w
	}
	if a.mins != nil && w < a.mins[region] {
		a.mins[region] = w
	}
	if a.maxs != nil && w > a.maxs[region] {
		a.maxs[region] = w
	}
}

// merge folds shard-partial accumulators into a, in shard order — the same
// association mergeResults used, so parallel sums stay reproducible for a
// fixed shard count.
func (a *acc) merge(parts []acc) {
	for _, p := range parts {
		for i := range p.counts {
			a.counts[i] += p.counts[i]
		}
		if a.sums != nil {
			for i := range p.sums {
				a.sums[i] += p.sums[i]
			}
		}
		if a.mins != nil {
			for i := range p.mins {
				if p.mins[i] < a.mins[i] {
					a.mins[i] = p.mins[i]
				}
			}
		}
		if a.maxs != nil {
			for i := range p.maxs {
				if p.maxs[i] > a.maxs[i] {
					a.maxs[i] = p.maxs[i]
				}
			}
		}
	}
}

// results copies the shared columns out into one independent Result per
// aggregate, positionally aligned with aggs.
func (a *acc) results(aggs []Agg) []Result {
	out := make([]Result, len(aggs))
	for k, agg := range aggs {
		r := Result{Agg: agg, Counts: make([]int64, len(a.counts))}
		copy(r.Counts, a.counts)
		switch agg {
		case Sum, Avg:
			r.Sums = append([]float64(nil), a.sums...)
		case Min:
			r.Extremes = append([]float64(nil), a.mins...)
		case Max:
			r.Extremes = append([]float64(nil), a.maxs...)
		}
		out[k] = r
	}
	return out
}

// canceled reports whether done (a ctx.Done() channel, possibly nil) has
// fired.
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// pointShardFold is the shared scaffold of the point-driven multi-aggregate
// folds: shard the points contiguously across workers, give each worker a
// private accumulator (perWorker returns the per-point body, so workers can
// keep private scratch like the ACT lookup buffer), poll for cancellation
// every cancelCheckMask+1 points, and merge in shard order — the fixed
// association that keeps results reproducible for a given worker count.
func pointShardFold(ctx context.Context, nPts, workers, numReg int, aggs []Agg,
	perWorker func() func(i int, part *acc)) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	needs := needsOf(aggs)
	done := ctx.Done()
	shards := pool.Split(nPts, workers)
	parts := make([]acc, len(shards))
	err := pool.RunCtx(ctx, len(shards), len(shards), func(_, si int) error {
		part := newAcc(needs, numReg)
		perPoint := perWorker()
		for i := shards[si][0]; i < shards[si][1]; i++ {
			if i&cancelCheckMask == 0 && canceled(done) {
				return ctx.Err()
			}
			perPoint(i, &part)
		}
		parts[si] = part
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := newAcc(needs, numReg)
	total.merge(parts)
	return total.results(aggs), nil
}

// AggregateMulti computes every aggregate in aggs in one sharded pass over
// the points: one trie lookup per point, shared by all aggregates. Results
// align with aggs and are bit-identical to per-aggregate runs at the same
// worker count. Cancellation returns ctx.Err() after every worker has unwound.
func (j *ACTJoiner) AggregateMulti(ctx context.Context, ps PointSet, aggs []Agg, workers int) ([]Result, error) {
	if err := ps.validateAggs(aggs); err != nil {
		return nil, err
	}
	// Visit every covering cell per point: near shared boundaries the
	// conservative covers of adjacent regions overlap, and counting the
	// point for each keeps the per-region guarantee "approximate ⊇ exact"
	// that the result-range interval of §6 relies on. A region's own cells
	// are disjoint, so a point is counted at most once per region.
	return pointShardFold(ctx, len(ps.Pts), workers, j.numReg, aggs, func() func(int, *acc) {
		buf := make([]int32, 0, 4)
		return func(i int, part *acc) {
			pos, ok := j.domain.LeafPos(j.curve, ps.Pts[i])
			if !ok {
				return
			}
			w := ps.weight(i)
			buf = j.trie.LookupAppend(pos, buf[:0])
			for _, v := range buf {
				region, _ := decodePayload(v)
				part.add(region, w)
			}
		}
	})
}

// AggregateMulti joins a streamed point set through the cover table: each
// point's leaf key is located among the boundary segments once and fanned out
// to the segment's stab list, the regions whose covers hold it. The covers are
// the cells the ACT trie indexes — the same conservative hierarchical raster
// per region at the same bound — so a point meets exactly the regions its trie
// lookup finds, and the fold visits points in the same shards and order:
// every aggregate is bit-identical to ACTJoiner.AggregateMulti at the same
// worker count.
func (cs *CoverSet) AggregateMulti(ctx context.Context, ps PointSet, aggs []Agg, workers int) ([]Result, error) {
	if err := ps.validateAggs(aggs); err != nil {
		return nil, err
	}
	return pointShardFold(ctx, len(ps.Pts), workers, cs.NumRegions(), aggs, func() func(int, *acc) {
		return func(i int, part *acc) {
			key, ok := cs.domain.LeafPos(cs.curve, ps.Pts[i])
			if !ok {
				return
			}
			w := ps.weight(i)
			for _, ri := range cs.plan.stab(key) {
				part.add(int(ri), w)
			}
		}
	})
}

// AggregateMulti is the multi-aggregate form of the exact filter-and-refine
// join: one R*-tree point probe per point and one refinement per candidate,
// shared by all aggregates.
func (j *RStarJoiner) AggregateMulti(ctx context.Context, ps PointSet, aggs []Agg, workers int) ([]Result, error) {
	if err := ps.validateAggs(aggs); err != nil {
		return nil, err
	}
	return pointShardFold(ctx, len(ps.Pts), workers, len(j.refine), aggs, func() func(int, *acc) {
		return func(i int, part *acc) {
			p := ps.Pts[i]
			w := ps.weight(i)
			j.tree.SearchPoint(p, func(it rstar.Item) bool {
				// Refinement: the exact PIP test the approximate joins skip.
				if j.refine[it.ID].ContainsPoint(p) {
					part.add(int(it.ID), w)
				}
				return true
			})
		}
	})
}

// AggregateMulti is the multi-aggregate form of the cached-mask raster join:
// tile after tile, the tile's points become one sorted pixel run feeding the
// count and (when needed) sum, and each of the tile's masks sweeps it along
// its spans — split over the workers by span count, each mask swept by one
// worker, each region's slot of counts and sums therefore written by one.
//
// The sums are bit-identical to BRJ.Run's at every worker count, for finite
// weights (validation refuses others) whose pixel sums do not overflow.
// BRJ.Run folds a mask as Σ m·a over the
// mask window in row-major order from +0, then adds that into the region's
// slot; a sweep adds the same terms in the same order, minus those where the
// mask or the pixel is 0. Each dropped term is ±0, which leaves a finite sum
// that starts at +0 unchanged (such a sum is never −0). MIN/MAX cannot run on
// additive pixels and are rejected, exactly as in the single-aggregate form.
// A failed or canceled run drops its point buffers; any other puts them back.
func (j *BRJJoiner) AggregateMulti(ctx context.Context, ps PointSet, aggs []Agg, workers int) ([]Result, error) {
	if err := ps.validateAggs(aggs); err != nil {
		return nil, err
	}
	for _, a := range aggs {
		if a == Min || a == Max {
			return nil, fmt.Errorf("join: BRJ supports COUNT/SUM/AVG, not %v", a)
		}
	}
	needSum, done := needsOf(aggs).sum, ctx.Done()
	counts := make([]float64, j.numReg)
	sums := make([]float64, j.numReg)
	sc := j.scratch.Swap(nil)
	if sc == nil {
		sc = new(brjScratch)
	}
	if err := sc.key(ctx, &j.brjPass, ps); err != nil {
		return nil, err
	}
	for ti, pairs := range sc.tiles {
		masks := j.tiles[ti]
		if len(pairs) == 0 || len(masks) == 0 {
			continue // no points or no masks: the tile contributes nothing
		}
		sc.load(j.tile(ti), ps, needSum, pairs)
		shards := pool.SplitWeighted(len(masks), pool.Workers(workers, len(masks)), func(i int) int64 {
			return int64(len(masks[i].spans))
		})
		err := pool.RunCtx(ctx, len(shards), len(shards), func(_, s int) error {
			for _, m := range masks[shards[s][0]:shards[s][1]] {
				if canceled(done) {
					return ctx.Err()
				}
				c, w := sc.sweep(m.spans, needSum)
				counts[m.region] += c
				if needSum {
					sums[m.region] += w
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	j.scratch.CompareAndSwap(nil, sc)

	out := make([]Result, len(aggs))
	for k, agg := range aggs {
		out[k] = brjResult(agg, counts, sums)
	}
	return out, nil
}
