// Package raster implements the paper's central artifact: distance-bounded
// raster approximations of arbitrary regions (§2.1–§2.2).
//
// A region is approximated by a set of grid cells, split into interior cells
// (fully contained in the region, any size) and boundary cells (overlapping
// the region boundary). When the boundary cells have side length at most
// ε/√2 — diagonal at most ε — the Hausdorff distance between the region and
// the cell union is at most ε:
//
//   - Conservative approximations include every cell that intersects the
//     region, so they admit no false negatives; false positives lie within ε
//     of the boundary.
//   - Centroid (non-conservative, GPU-rasterization-style) approximations
//     include the cells whose center is inside, admitting both error kinds,
//     each still within ε of the boundary.
//
// One construction is provided, in two forms: Hierarchical
// (variable-sized cells, Figure 1(c)) is the descent below, and Uniform (all
// cells at one level, Figure 1(b)) is the same cell set with every coarse
// interior cell written out as its run of level cells — so at one level the
// two cover the same leaf positions. A budgeted cover trades cell count for
// precision (the 32/128/512 cells-per-polygon precision levels of Figure 4).
//
// Cells are closed rectangles, here and in everything built from these cells
// (the ACT trie, the cover sets): a region edge lying exactly on a grid line
// touches the cells on both sides of it, and both are boundary cells.
//
// The descent is one depth-first walk of the quadtree over a whole region set,
// each cell classified once for every region that meets it. Every ring edge of
// the set is stored once, in canonical endpoint order, with the regions that
// own it (the segment table, see classifier), so an edge two neighbours share
// is tested once per cell for both. A cell carries the segments and the
// partial regions of its parent: a region is partial where one of its segments
// crosses the cell, and any other is inside or outside by one locator test of
// the cell's center — asked once per side of the region's chord when a single
// segment of it crosses the parent, the answers carried down while that
// segment stays the only one (the side memo, see partial). Nearly every cell
// of a fine cover lies below a chord cell: one segment crosses it and its one
// or two owners are the only regions partial there (96 % of the 5.3 M cells at
// ε 4 on the benchmark's partition). Below the split level (everywhere, in a
// one-region walk) a chord cell's subtree is walked on that segment alone (see
// walkChord): no frames, no per-region marks, one segment test per child, one
// side test per uncrossed child for both owners, and memos shared by the
// subtree — the same cells in the same order as the general step, in about a
// third less time on the benchmark's partition. A cell's grid coordinates and
// curve state travel down with it, so a child's rectangle costs one
// sfc.Curve.Step, not a Decode from level 0. Children are visited in curve
// order — ascending CellID order, a subtree finished before the next sibling
// starts — so every region's cells come out sorted and are never sorted
// afterwards. A depth's lists are subsets of its parent's and dead once its
// subtree returns, so one slice per depth serves every cell: nothing is
// allocated per cell.
//
// The descent hands each (region, cell) to one of two sinks.
// HierarchicalAtLevel, and Hierarchical and Uniform through it, walk a
// one-region set and append the cells to Interior and Boundary, which merge
// into Ranges in one pass. CoverRanges, which builds the cover sets, walks
// the whole set: the subtrees below a fixed level run as tasks on a worker
// pool, and each coalesces its cells into leaf ranges as they arrive and
// keeps no cell list — at a fine bound a region has many more cells than
// ranges (the benchmark's 16×16×12 partition has 5.2 M cells and 0.61 M
// ranges at ε 4).
package raster

import (
	"math"
	"sort"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// Mode selects the boundary-cell policy of an approximation.
type Mode int

const (
	// Conservative includes every cell that intersects the region: only
	// false positives are possible.
	Conservative Mode = iota
	// Centroid includes the cells whose center lies in the region, the
	// sampling rule of GPU rasterization: both false positives and false
	// negatives are possible, each within the distance bound.
	Centroid
)

// String implements fmt.Stringer.
//
//distbound:api fmt.Stringer; the raster-mode ablation benchmark names its sub-benchmarks with it
func (m Mode) String() string {
	if m == Conservative {
		return "conservative"
	}
	return "centroid"
}

// PosRange is an inclusive range of MaxLevel curve positions.
type PosRange struct {
	Lo, Hi uint64
}

// Contains reports whether pos falls in the range.
func (r PosRange) Contains(pos uint64) bool { return r.Lo <= pos && pos <= r.Hi }

// Approximation is a raster approximation of a region: a set of interior and
// boundary cells over a Domain/Curve grid. It implements geom.RegionSet so
// that the guaranteed distance bound can be verified against the original
// geometry with geom.DirectedHausdorff.
type Approximation struct {
	Domain sfc.Domain
	Curve  sfc.Curve
	// Interior cells are fully contained in the region. They may be coarser
	// than the distance bound requires, since they contribute no error.
	Interior []sfc.CellID
	// Boundary cells overlap the region boundary; their diagonal determines
	// the approximation error. Both lists are in ascending CellID order,
	// which is curve order; Ranges relies on it.
	Boundary []sfc.CellID

	ranges []PosRange // cached merged leaf ranges of Interior ∪ Boundary
}

// NumCells returns the total number of cells.
func (a *Approximation) NumCells() int { return len(a.Interior) + len(a.Boundary) }

// MaxCellDiagonal returns the largest diagonal among boundary cells — the
// guaranteed Hausdorff bound of the approximation. It returns 0 when there
// are no boundary cells (the approximation is exact).
//
//distbound:oracle TestHierarchicalDistanceBound, TestCoverBudget and TestCircleRasterization read each cover's achieved bound with it
func (a *Approximation) MaxCellDiagonal() float64 {
	var d float64
	for _, id := range a.Boundary {
		if v := a.Domain.CellDiagonal(id.Level()); v > d {
			d = v
		}
	}
	return d
}

// Ranges returns the merged, sorted leaf-position ranges covered by the
// approximation. These are the 1D intervals a point index probes to answer
// a containment query on the approximation (§3). The result is cached. It
// is a two-way merge of the two ascending cell lists, coalescing as it goes.
func (a *Approximation) Ranges() []PosRange {
	if a.ranges != nil {
		return a.ranges
	}
	in, bd := a.Interior, a.Boundary
	var out []PosRange
	for len(in) > 0 || len(bd) > 0 {
		var id sfc.CellID
		if len(bd) == 0 || (len(in) > 0 && in[0] < bd[0]) {
			id, in = in[0], in[1:]
		} else {
			id, bd = bd[0], bd[1:]
		}
		lo, hi := id.LeafPosRange()
		// The constructions here emit disjoint cells, but a decoded
		// approximation may nest them: an ancestor sorts after the
		// descendants in its lower half and swallows their ranges.
		for len(out) > 0 && out[len(out)-1].Lo >= lo {
			out = out[:len(out)-1]
		}
		if n := len(out); n > 0 && lo <= out[n-1].Hi+1 { // adjacent or overlapping
			out[n-1].Hi = max(out[n-1].Hi, hi)
			continue
		}
		out = append(out, PosRange{lo, hi})
	}
	a.ranges = out
	return a.ranges
}

// CoversLeafPos reports whether a MaxLevel curve position falls in the
// approximation, by binary search over the merged ranges.
func (a *Approximation) CoversLeafPos(pos uint64) bool {
	rs := a.Ranges()
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Hi >= pos })
	return i < len(rs) && rs[i].Contains(pos)
}

// ContainsPoint reports whether p falls in a cell of the approximation.
// This is the approximate containment test that replaces the exact PIP test.
func (a *Approximation) ContainsPoint(p geom.Point) bool {
	pos, ok := a.Domain.LeafPos(a.Curve, p)
	if !ok {
		return false
	}
	return a.CoversLeafPos(pos)
}

// DistToPoint returns the distance from p to the union of cells (0 when
// covered). Linear in the cell count; intended for verification, not for
// query processing.
func (a *Approximation) DistToPoint(p geom.Point) float64 {
	if a.ContainsPoint(p) {
		return 0
	}
	d := math.Inf(1)
	scan := func(ids []sfc.CellID) {
		for _, id := range ids {
			if v := a.Domain.CellIDRect(a.Curve, id).DistToPoint(p); v < d {
				d = v
			}
		}
	}
	scan(a.Interior)
	scan(a.Boundary)
	return d
}

// BoundarySamples returns points sampled on the outline of the cell union at
// the given step, used to estimate the Hausdorff distance from the
// approximation to the region. Cell edges interior to the union contribute
// samples too; those have distance 0 to the union and only slacken the
// estimate on the region side, never the bound check.
func (a *Approximation) BoundarySamples(step float64) []geom.Point {
	var out []geom.Point
	for _, id := range append(append([]sfc.CellID{}, a.Interior...), a.Boundary...) {
		r := a.Domain.CellIDRect(a.Curve, id)
		for _, e := range r.Edges() {
			out = append(out, geom.SampleRingBoundary(geom.Ring{e.A, e.B}, step)...)
		}
	}
	return out
}

// Area returns the summed area of all cells — an upper bound on the region
// area for conservative approximations.
func (a *Approximation) Area() float64 {
	var s float64
	for _, id := range a.Interior {
		side := a.Domain.CellSide(id.Level())
		s += side * side
	}
	for _, id := range a.Boundary {
		side := a.Domain.CellSide(id.Level())
		s += side * side
	}
	return s
}

var _ geom.RegionSet = (*Approximation)(nil)
