package sfc

import (
	"fmt"
	"math"

	"distbound/internal/geom"
)

// Domain maps a square region of the plane onto the hierarchical grid. All
// rasterization and linearization happens relative to a Domain, which plays
// the role of the "canvas extent" in the paper's experiments (the city
// bounding box).
type Domain struct {
	// Origin is the lower-left corner of the domain square.
	Origin geom.Point
	// Size is the side length of the domain square; must be positive.
	Size float64
}

// NewDomain returns a Domain covering the given square.
func NewDomain(origin geom.Point, size float64) (Domain, error) {
	if !(size > 0) || math.IsInf(size, 0) || math.IsNaN(size) {
		return Domain{}, fmt.Errorf("sfc: invalid domain size %v", size)
	}
	return Domain{Origin: origin, Size: size}, nil
}

// DomainForRect returns the smallest square Domain containing r, expanded by
// a small margin so that boundary coordinates stay strictly inside (the grid
// mapping clamps at the far edge otherwise).
func DomainForRect(r geom.Rect) Domain {
	side := math.Max(r.Width(), r.Height())
	if side <= 0 {
		side = 1
	}
	margin := side * 1e-9
	return Domain{Origin: geom.Pt(r.Min.X-margin, r.Min.Y-margin), Size: side * (1 + 2e-9)}
}

// Bounds returns the domain square as a Rect.
func (d Domain) Bounds() geom.Rect {
	return geom.Rect{Min: d.Origin, Max: geom.Pt(d.Origin.X+d.Size, d.Origin.Y+d.Size)}
}

// CellSide returns the side length of a cell at the given level.
func (d Domain) CellSide(level int) float64 {
	return d.Size / float64(uint64(1)<<uint(level))
}

// CellDiagonal returns the diagonal length of a cell at the given level.
// A boundary cell contributes at most its diagonal to the Hausdorff distance
// between a polygon and its raster approximation (§2.2).
func (d Domain) CellDiagonal(level int) float64 {
	return d.CellSide(level) * math.Sqrt2
}

// LevelForBound returns the coarsest level whose cell diagonal is at most
// eps, i.e. the level at which boundary cells guarantee d_H ≤ eps. It
// saturates at MaxLevel; callers that need a hard guarantee should verify
// CellDiagonal(level) ≤ eps afterwards.
func (d Domain) LevelForBound(eps float64) int {
	if eps <= 0 {
		return MaxLevel
	}
	for level := 0; level <= MaxLevel; level++ {
		if d.CellDiagonal(level) <= eps {
			return level
		}
	}
	return MaxLevel
}

// Coord maps p to integer cell coordinates on the level grid, clamping to
// the domain. ok is false when p lies outside the domain square.
func (d Domain) Coord(p geom.Point, level int) (x, y uint32, ok bool) {
	n := uint64(1) << uint(level)
	fx := (p.X - d.Origin.X) / d.Size
	fy := (p.Y - d.Origin.Y) / d.Size
	ok = fx >= 0 && fx <= 1 && fy >= 0 && fy <= 1
	cx := int64(fx * float64(n))
	cy := int64(fy * float64(n))
	clamp := func(v int64) uint32 {
		if v < 0 {
			return 0
		}
		if v >= int64(n) {
			return uint32(n - 1)
		}
		return uint32(v)
	}
	return clamp(cx), clamp(cy), ok
}

// CellRect returns the rectangle in the plane covered by cell (x, y) at the
// given level.
func (d Domain) CellRect(x, y uint32, level int) geom.Rect {
	side := d.CellSide(level)
	minX := d.Origin.X + float64(x)*side
	minY := d.Origin.Y + float64(y)*side
	return geom.Rect{Min: geom.Pt(minX, minY), Max: geom.Pt(minX+side, minY+side)}
}

// CellIDRect returns the rectangle covered by a CellID under the curve.
func (d Domain) CellIDRect(c Curve, id CellID) geom.Rect {
	x, y := id.XY(c)
	return d.CellRect(x, y, id.Level())
}

// LeafPos returns the MaxLevel curve position of p — the 1D key under which
// a point is stored in the linearized point indexes of §3. ok is false when
// p is outside the domain (the position is then clamped to the border cell).
func (d Domain) LeafPos(c Curve, p geom.Point) (pos uint64, ok bool) {
	x, y, ok := d.Coord(p, MaxLevel)
	return c.Encode(MaxLevel, x, y), ok
}
