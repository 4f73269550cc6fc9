package join

import (
	"context"
	"fmt"
	"math"

	"distbound/internal/index/rstar"
	"distbound/internal/pool"
)

// Multi-aggregate evaluation: the expensive part of every strategy — the trie
// lookup, the R*-tree descent + PIP refinement, the canvas scatter, the
// cover-range boundary sweep — depends only on the point's location, never on
// which aggregate is being computed. AggregateMulti therefore runs ONE pass
// and folds every requested aggregate from it: every aggregate shares the
// lookups, and on the resident path SUM, MIN and MAX share one span fold. Results are positionally
// aligned with the aggregate set and bit-identical to running each aggregate
// alone.
//
// Every AggregateMulti takes a context: cancellation unwinds the worker
// fan-out promptly (workers poll between regions or chunks of foldChunk
// points) and the call returns ctx.Err() only after every worker has exited,
// so no goroutine outlives the call and no partial result escapes.
//
// Parallel evaluation (§2.3 "Execution"): because every point lookup — and
// every canvas pixel — is independent, and COUNT/SUM/AVG are distributive or
// algebraic, the aggregation join decomposes into partial aggregates that
// merge exactly. The fold order is fixed by the data, never by the worker
// count: COUNT, MIN and MAX do not depend on order, and SUM is summed per
// fixed-size chunk of points and merged in chunk order, so every strategy
// returns the same bits at every worker count.

// foldChunk is the fold's one unit of work: the points a point fold sums as
// one partial, the ranges one batched span fold takes (its workspace is four
// stack columns of this length), and the rows or points between two context
// polls of the inline loops.
const foldChunk = 4096

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

// aggNeeds records which accumulator columns an aggregate set requires: what
// the streaming folds keep, column by column.
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

// acc is the per-region accumulator every fold and merge goes through (a
// Result's columns too, through Result.acc): the four columns every aggregate
// derives from, counts always, the others only when some aggregate needs
// them — a nil column is one nobody asked for. Extremes use the builtin min
// and max, which order −0 below +0, so no MIN or MAX depends on the order its
// values arrive in.
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

// memoryBytes is the accumulator's footprint.
func (a *acc) memoryBytes() int {
	return 8 * (len(a.counts) + len(a.sums) + len(a.mins) + len(a.maxs))
}

// add records a matched point for a region across every tracked column.
//
//distbound:noalloc
func (a *acc) add(region int, w float64) {
	a.counts[region]++
	if a.sums != nil {
		a.sums[region] += w
	}
	if a.mins != nil {
		a.mins[region] = min(a.mins[region], w)
	}
	if a.maxs != nil {
		a.maxs[region] = max(a.maxs[region], w)
	}
}

// merge folds p into a, column by column, over the columns both hold.
//
//distbound:noalloc
func (a *acc) merge(p *acc) {
	if p.counts != nil {
		for i := range a.counts {
			a.counts[i] += p.counts[i]
		}
	}
	if p.sums != nil {
		for i := range a.sums {
			a.sums[i] += p.sums[i]
		}
	}
	if p.mins != nil {
		for i := range a.mins {
			a.mins[i] = min(a.mins[i], p.mins[i])
		}
	}
	if p.maxs != nil {
		for i := range a.maxs {
			a.maxs[i] = max(a.maxs[i], p.maxs[i])
		}
	}
}

// writeTo writes every region's answer into results — a's columns plus, when
// delta is non-nil, delta's — each result taking the columns its aggregate
// derives from. a and delta are only read.
//
//distbound:noalloc
func (a *acc) writeTo(results []Result, delta *acc) {
	for k := range results {
		out := results[k].acc()
		copy(out.counts, a.counts)
		copy(out.sums, a.sums)
		copy(out.mins, a.mins)
		copy(out.maxs, a.maxs)
		if delta != nil {
			out.merge(delta)
		}
	}
}

// MergeResults folds one partition's results into dst, aggregate by
// aggregate and region by region, through the accumulator's merge: counts
// and sums add, extremes take the builtin min or max. Empty regions hold the
// fold identities (zero counts and sums, ±Inf extremes), so the merge is
// unconditional; dst and part must align.
func MergeResults(dst, part []Result) {
	for k := range dst {
		a, p := dst[k].acc(), part[k].acc()
		a.merge(&p)
	}
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

// pointChunkFold is the shared scaffold of the point-driven multi-aggregate
// folds. The points are cut into chunks of foldChunk, dispatched across
// workers (pool.RunCtx polls the context before each), and fold runs once per
// chunk [lo, hi) in point order. Each worker keeps private COUNT/MIN/MAX
// columns, which no order can change, and a private scratch slice that fold
// may grow and keep (the ACT lookup buffer, the cover set's segments); SUM
// is kept per chunk, summed in point order from +0, and the chunk sums merge
// in chunk order. Which worker folded a chunk therefore never shows in the
// result: it is the same at every worker count.
func pointChunkFold(ctx context.Context, nPts, workers, numReg int, aggs []Agg,
	fold func(lo, hi int, part *acc, scratch *[]int32)) ([]Result, error) {
	needs := needsOf(aggs)
	chunks := (nPts + foldChunk - 1) / foldChunk
	workers = pool.Workers(workers, chunks)
	parts := make([]acc, workers)
	scratch := make([][]int32, workers)
	var sums []float64
	if needs.sum {
		sums = make([]float64, chunks*numReg)
	}
	err := pool.RunCtx(ctx, chunks, workers, func(w, c int) error {
		if parts[w].counts == nil {
			parts[w] = newAcc(aggNeeds{min: needs.min, max: needs.max}, numReg)
		}
		part := &parts[w]
		if sums != nil {
			part.sums = sums[c*numReg : (c+1)*numReg]
		}
		fold(c*foldChunk, min(nPts, (c+1)*foldChunk), part, &scratch[w])
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := newAcc(needs, numReg)
	for w := range parts {
		parts[w].sums = nil // the worker's last chunk, merged below
		total.merge(&parts[w])
	}
	for c := 0; sums != nil && c < chunks; c++ {
		total.merge(&acc{sums: sums[c*numReg : (c+1)*numReg]})
	}
	results := NewResults(aggs, numReg)
	total.writeTo(results, nil)
	return results, nil
}

// AggregateMulti computes every aggregate in aggs in one pass over the
// points: one trie lookup per point, shared by all aggregates. Results align
// with aggs and are the same at every worker count. Cancellation returns
// ctx.Err() after every worker has unwound.
func (j *ACTJoiner) AggregateMulti(ctx context.Context, ps PointSet, aggs []Agg, workers int) ([]Result, error) {
	if err := ps.validateAggs(aggs); err != nil {
		return nil, err
	}
	// Visit every covering cell per point: near shared boundaries the
	// conservative covers of adjacent regions overlap, and counting the
	// point for each keeps the per-region guarantee "approximate ⊇ exact"
	// that the result-range interval of §6 relies on. A region's own cells
	// are disjoint, so a point is counted at most once per region.
	return pointChunkFold(ctx, len(ps.Pts), workers, j.numReg, aggs, func(lo, hi int, part *acc, buf *[]int32) {
		for i := lo; i < hi; i++ {
			pos, ok := j.domain.LeafPos(j.curve, ps.Pts[i])
			if !ok {
				continue
			}
			w := ps.weight(i)
			*buf = j.trie.LookupAppend(pos, (*buf)[:0])
			for _, v := range *buf {
				region, _ := decodePayload(v)
				part.add(region, w)
			}
		}
	})
}

// AggregateMulti joins a streamed point set through the cover table, a chunk
// at a time: the chunk's points are resolved to their boundary segments
// (coverPlan.resolvePoints, most from their coarse cell alone), then each
// point's weight fans out to its segment's stab list, the regions whose
// covers hold it, in point order. The covers are the cells the ACT trie
// indexes — the same conservative hierarchical raster per region at the same
// bound — so a point meets exactly the regions its trie lookup finds, and the
// fold visits points in the same order: every aggregate is bit-identical to
// ACTJoiner.AggregateMulti.
func (cs *CoverSet) AggregateMulti(ctx context.Context, ps PointSet, aggs []Agg, workers int) ([]Result, error) {
	if err := ps.validateAggs(aggs); err != nil {
		return nil, err
	}
	return pointChunkFold(ctx, len(ps.Pts), workers, cs.NumRegions(), aggs, func(lo, hi int, part *acc, segs *[]int32) {
		p := cs.plan
		*segs = append((*segs)[:0], make([]int32, hi-lo)...)
		p.resolvePoints(cs.domain, cs.curve, ps.Pts[lo:hi], *segs)
		for k, seg := range *segs {
			if seg < 0 {
				continue
			}
			w := ps.weight(lo + k)
			for _, ri := range p.stabRegions[p.stabOff[seg]:p.stabOff[seg+1]] {
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
	return pointChunkFold(ctx, len(ps.Pts), workers, len(j.refine), aggs, func(lo, hi int, part *acc, _ *[]int32) {
		for i := lo; i < hi; i++ {
			p, w := ps.Pts[i], ps.weight(i)
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
