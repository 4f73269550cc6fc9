package sfc

import (
	"fmt"
	"math/bits"
)

// CellID is a 64-bit hierarchical identifier for a grid cell at any level
// from 0 (the whole domain) to MaxLevel. The encoding places the cell's
// curve position in the high bits followed by a single sentinel one-bit and
// zero padding:
//
//	id = pos << (2*(MaxLevel-level) + 1)  |  1 << (2*(MaxLevel-level))
//
// The sentinel makes the level recoverable from the lowest set bit, gives
// every cell a distinct ID across levels, and — crucially for indexing —
// makes the IDs of all descendants of a cell form a contiguous interval
// [RangeMin, RangeMax] in plain uint64 order. This is the linearization that
// §3 of the paper builds ACT and the learned index on.
//
// The zero CellID is invalid.
type CellID uint64

// FromPosLevel builds a CellID from a curve position on the level grid.
func FromPosLevel(pos uint64, level int) CellID {
	shift := uint(2*(MaxLevel-level) + 1)
	return CellID(pos<<shift | 1<<(shift-1))
}

// FromXY builds a CellID for cell (x, y) on the level grid under the curve.
func FromXY(c Curve, x, y uint32, level int) CellID {
	return FromPosLevel(c.Encode(level, x, y), level)
}

// IsValid reports whether id is a well-formed cell ID: non-zero, sentinel at
// an even distance from bit 0, and position within the level grid.
func (id CellID) IsValid() bool {
	if id == 0 {
		return false
	}
	tz := bits.TrailingZeros64(uint64(id))
	if tz%2 != 0 || tz > 2*MaxLevel {
		return false
	}
	// The position must fit in 2*level bits.
	return uint64(id)>>(2*MaxLevel+1) == 0
}

// Level returns the grid level of the cell.
func (id CellID) Level() int {
	return MaxLevel - bits.TrailingZeros64(uint64(id))/2
}

// lsb returns the lowest set bit (the sentinel).
func (id CellID) lsb() uint64 { return uint64(id) & -uint64(id) }

// Pos returns the curve position of the cell on its own level grid.
func (id CellID) Pos() uint64 {
	shift := uint(2*(MaxLevel-id.Level()) + 1)
	return uint64(id) >> shift
}

// XY returns the cell coordinates on its own level grid under the curve.
func (id CellID) XY(c Curve) (x, y uint32) {
	return c.Decode(id.Level(), id.Pos())
}

// Parent returns the enclosing cell one level up. Calling Parent on a
// level-0 cell is invalid.
func (id CellID) Parent() CellID {
	nlsb := id.lsb() << 2
	return CellID(uint64(id)&^(2*nlsb-1) | nlsb)
}

// Children returns the four child cells in curve order. Calling Children on
// a leaf cell is invalid.
func (id CellID) Children() [4]CellID {
	clsb := id.lsb() >> 2
	base := uint64(id) - id.lsb() + clsb
	return [4]CellID{
		CellID(base),
		CellID(base + 2*clsb),
		CellID(base + 4*clsb),
		CellID(base + 6*clsb),
	}
}

// RangeMin returns the smallest leaf CellID contained in the cell.
func (id CellID) RangeMin() CellID { return CellID(uint64(id) - (id.lsb() - 1)) }

// RangeMax returns the largest leaf CellID contained in the cell.
func (id CellID) RangeMax() CellID { return CellID(uint64(id) + (id.lsb() - 1)) }

// LeafPosRange returns the inclusive range [lo, hi] of MaxLevel curve
// positions covered by the cell. Point keys linearized at MaxLevel fall in
// this range exactly when they are inside the cell.
func (id CellID) LeafPosRange() (lo, hi uint64) {
	return uint64(id.RangeMin()) >> 1, uint64(id.RangeMax()) >> 1
}

// Contains reports whether o is id itself or a descendant of id.
func (id CellID) Contains(o CellID) bool {
	return id.RangeMin() <= o && o <= id.RangeMax()
}

// Intersects reports whether the two cells overlap, i.e. one contains the
// other.
func (id CellID) Intersects(o CellID) bool {
	return id.Contains(o) || o.Contains(id)
}

// String implements fmt.Stringer.
func (id CellID) String() string {
	if !id.IsValid() {
		return fmt.Sprintf("cell(invalid %#x)", uint64(id))
	}
	return fmt.Sprintf("cell(L%d pos=%d)", id.Level(), id.Pos())
}
