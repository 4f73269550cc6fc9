package join

import (
	"sort"

	"distbound/internal/geom"
	"distbound/internal/raster"
	"distbound/internal/sfc"
)

// IntersectJoiner evaluates region-region intersection joins on
// distance-bounded approximations: §4's point that once geometries are cells,
// a polygon-polygon join is the same 1D-range machinery as a point-polygon
// query, with no geometry-specific code. Both inputs are covered
// conservatively, so the join reports a superset of the truly intersecting
// pairs, and every false pair is within the sum of the two distance bounds
// of touching.
type IntersectJoiner struct {
	left, right []*raster.Approximation
}

// NewIntersectJoiner approximates both region sets at distance bound eps.
func NewIntersectJoiner(left, right []geom.Region, d sfc.Domain, curve sfc.Curve, eps float64) (*IntersectJoiner, error) {
	build := func(regions []geom.Region) ([]*raster.Approximation, error) {
		out := make([]*raster.Approximation, len(regions))
		for i, rg := range regions {
			a, err := raster.Hierarchical(rg, d, curve, eps, raster.Conservative)
			if err != nil {
				return nil, err
			}
			out[i] = a
		}
		return out, nil
	}
	l, err := build(left)
	if err != nil {
		return nil, err
	}
	r, err := build(right)
	if err != nil {
		return nil, err
	}
	return &IntersectJoiner{left: l, right: r}, nil
}

// ownedRange is a leaf-position interval tagged with its owning region.
type ownedRange struct {
	lo, hi uint64
	id     int32
}

// Pairs returns every (left, right) index pair whose approximations share a
// leaf position, via a plane-sweep over the two sorted range lists: a pair
// overlaps exactly when one of its ranges starts inside a range of the other
// side, so two symmetric start-point passes find all pairs in
// O((n+m)·log(n+m) + output).
func (j *IntersectJoiner) Pairs() [][2]int32 {
	leftRanges := collectRanges(j.left)
	rightRanges := collectRanges(j.right)

	seen := make(map[uint64]struct{})
	var out [][2]int32
	emit := func(li, ri int32) {
		key := uint64(uint32(li))<<32 | uint64(uint32(ri))
		if _, dup := seen[key]; dup {
			return
		}
		seen[key] = struct{}{}
		out = append(out, [2]int32{li, ri})
	}

	// Pass 1: right ranges starting inside a left range.
	sweepStarts(leftRanges, rightRanges, func(l, r ownedRange) { emit(l.id, r.id) })
	// Pass 2: left ranges starting inside a right range (covers the case
	// where the left range starts inside the right one).
	sweepStarts(rightRanges, leftRanges, func(r, l ownedRange) { emit(l.id, r.id) })

	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

func collectRanges(as []*raster.Approximation) []ownedRange {
	var out []ownedRange
	for id, a := range as {
		for _, r := range a.Ranges() {
			out = append(out, ownedRange{lo: r.Lo, hi: r.Hi, id: int32(id)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].lo < out[j].lo })
	return out
}

// sweepStarts calls fn(container, starter) for every pair where a range of
// starters begins inside a range of containers. Both inputs are sorted by lo.
func sweepStarts(containers, starters []ownedRange, fn func(c, s ownedRange)) {
	// Active containers ordered by hi in a simple heap-free structure: since
	// output size dominates, scan actives per starter after pruning.
	type active struct {
		hi uint64
		r  ownedRange
	}
	var act []active
	ci := 0
	for _, s := range starters {
		for ci < len(containers) && containers[ci].lo <= s.lo {
			act = append(act, active{hi: containers[ci].hi, r: containers[ci]})
			ci++
		}
		// Prune expired containers (hi < s.lo), compacting in place.
		k := 0
		for _, a := range act {
			if a.hi >= s.lo {
				act[k] = a
				k++
			}
		}
		act = act[:k]
		for _, a := range act {
			fn(a.r, s)
		}
	}
}
