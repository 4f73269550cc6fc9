package join

import (
	"context"
	"fmt"

	"distbound/internal/act"
	"distbound/internal/geom"
	"distbound/internal/pool"
	"distbound/internal/raster"
	"distbound/internal/sfc"
)

// ACTJoiner is the paper's approximate main-memory join (§5.1): every region
// is approximated by a conservative, distance-bounded hierarchical raster
// and the cells are indexed in an Adaptive Cell Trie. The join is an
// index-nested loop over the points with the aggregation fused in — no join
// result is materialized and no PIP test is ever executed. Every point that
// is miscounted lies within the distance bound of some region boundary.
type ACTJoiner struct {
	trie   *act.CompactTrie
	domain sfc.Domain
	curve  sfc.Curve
	numReg int
	cells  int
	// boundaryCells counts boundary cells per region for reporting.
	boundaryCells int
}

// NewACTJoiner builds the joiner: one HR approximation per region at
// distance bound eps, all cells inserted into a single trie. Payloads encode
// (region ID, boundary flag) so that result-range estimation can attribute
// hits to boundary cells. The regions are rasterised on GOMAXPROCS workers
// into a slice — 8 bytes a cell, less than the trie built from them — and
// inserted in region order, so the trie is cell for cell the one-worker
// build's.
func NewACTJoiner(regions []geom.Region, d sfc.Domain, curve sfc.Curve, eps float64, stride int) (*ACTJoiner, error) {
	trie, err := act.New(stride)
	if err != nil {
		return nil, err
	}
	hrs := make([]*raster.Approximation, len(regions))
	err = pool.Run(len(regions), pool.Workers(0, len(regions)), func(_, ri int) (err error) {
		hrs[ri], err = raster.Hierarchical(regions[ri], d, curve, eps, raster.Conservative)
		return err
	})
	if err != nil {
		return nil, err
	}
	j := &ACTJoiner{domain: d, curve: curve, numReg: len(regions)}
	for ri, a := range hrs {
		trie.InsertCells(a.Interior, encodePayload(ri, false))
		trie.InsertCells(a.Boundary, encodePayload(ri, true))
		j.cells += a.NumCells()
		j.boundaryCells += len(a.Boundary)
	}
	// Freeze into the read-optimized layout: the joiner only ever reads.
	j.trie = trie.Compact()
	return j, nil
}

// encodePayload packs a region ID and a boundary flag into an int32.
func encodePayload(region int, boundary bool) int32 {
	v := int32(region) << 1
	if boundary {
		v |= 1
	}
	return v
}

func decodePayload(v int32) (region int, boundary bool) {
	return int(v >> 1), v&1 == 1
}

// NumCells returns the total number of indexed cells.
func (j *ACTJoiner) NumCells() int { return j.cells }

// MemoryBytes returns the trie footprint — the memory/accuracy trade the
// paper quantifies for ACT.
func (j *ACTJoiner) MemoryBytes() int { return j.trie.MemoryBytes() }

// LookupPoint returns the region assigned to p by the approximation, or -1.
// The first (coarsest) covering cell wins; on partition data a point away
// from boundaries has exactly one candidate.
func (j *ACTJoiner) LookupPoint(p geom.Point) int {
	pos, ok := j.domain.LeafPos(j.curve, p)
	if !ok {
		return -1
	}
	v := j.trie.LookupFirst(pos)
	if v < 0 {
		return -1
	}
	region, _ := decodePayload(v)
	return region
}

// Aggregate runs the approximate aggregation join — one trie lookup per
// point, no refinement: the single-aggregate, single-worker form of
// AggregateMulti.
//
//distbound:allow-background context-free convenience over AggregateMulti; callers hold no context to thread
func (j *ACTJoiner) Aggregate(ps PointSet, agg Agg) (Result, error) {
	rs, err := j.AggregateMulti(context.Background(), ps, []Agg{agg}, 1)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// Interval is a guaranteed enclosure of an exact aggregate (§6).
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether v lies in the closed interval.
func (iv Interval) Contains(v float64) bool { return iv.Lo <= v && v <= iv.Hi }

// AggregateWithRange additionally returns, per region, an interval that is
// guaranteed to contain the exact aggregate (§6 "Result Range Estimation").
// With a conservative approximation only boundary cells can contribute false
// positives, so the exact value is α minus the weight of some subset of the
// points that hit the region's boundary cells. That weight lies between the
// negative part Σ⁻ and the positive part Σ⁺ of the boundary partial, so the
// exact value lies in [α − Σ⁺, α − Σ⁻]. For COUNT every weight is 1, and for
// COUNT and for SUM with non-negative weights the interval is [α − Σ⁺, α].
// SUM's bound holds up to the rounding of the float sums.
func (j *ACTJoiner) AggregateWithRange(ps PointSet, agg Agg) (Result, []Interval, error) {
	if agg != Count && agg != Sum {
		return Result{}, nil, fmt.Errorf("join: result-range estimation applies to COUNT and SUM, not %v", agg)
	}
	if err := ps.validate(agg); err != nil {
		return Result{}, nil, err
	}
	res := newResult(agg, j.numReg)
	a := res.acc()
	// The boundary partial, folded by sign.
	pos, neg := make([]float64, j.numReg), make([]float64, j.numReg)
	// The one loop that reads the payload's boundary bit; the visit order is
	// AggregateMulti's, so res is what Aggregate answers.
	buf := make([]int32, 0, 4)
	for i, p := range ps.Pts {
		key, ok := j.domain.LeafPos(j.curve, p)
		if !ok {
			continue
		}
		w := ps.weight(i)
		bw := w // the point's weight in the aggregate
		if agg == Count {
			bw = 1
		}
		buf = j.trie.LookupAppend(key, buf[:0])
		for _, v := range buf {
			region, isBoundary := decodePayload(v)
			a.add(region, w)
			switch {
			case !isBoundary:
			case bw > 0:
				pos[region] += bw
			default:
				neg[region] += bw
			}
		}
	}
	ivs := make([]Interval, j.numReg)
	for i := range ivs {
		alpha := res.Value(i)
		ivs[i] = Interval{Lo: alpha - pos[i], Hi: alpha - neg[i]}
	}
	return res, ivs, nil
}
