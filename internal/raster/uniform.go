package raster

import (
	"math"
	"slices"
	"sort"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// Uniform computes the uniform raster (UR) approximation of a region at a
// fixed grid level (Figure 1(b)). All cells have the same size, so the
// approximation satisfies d_H ≤ cell diagonal = Domain.CellDiagonal(level).
//
// The construction runs in time proportional to the number of produced
// cells plus the boundary length in cells: boundary cells are found by
// tracing every edge through the grid, interior cells by a parity scanline
// over cell-center rows.
func Uniform(rg geom.Region, d sfc.Domain, curve sfc.Curve, level int, mode Mode) *Approximation {
	a := &Approximation{Domain: d, Curve: curve}
	rings := regionRings(rg)
	if rings == nil {
		return uniformGeneric(rg, d, curve, level, mode)
	}

	side := d.CellSide(level)

	// Clip the working window to the domain.
	bb := rg.Bounds().Intersection(d.Bounds())
	if bb.IsEmpty() {
		return a
	}
	xMin, yMin, _ := d.Coord(bb.Min, level)
	xMax, yMax, _ := d.Coord(bb.Max, level)

	// Phase 1: mark every cell the boundary passes through.
	boundarySet := make(map[uint64]struct{})
	mark := func(x, y uint32) { boundarySet[uint64(y)<<32|uint64(x)] = struct{}{} }
	for _, ring := range rings {
		for i := range ring {
			traverseEdge(d, level, ring.Edge(i), mark)
		}
	}

	// Phase 2: per-row parity scan at cell-center height, over all rings
	// (even-odd handles holes and multi-part regions uniformly).
	centerInside := make(map[uint64]struct{})
	var xs []float64
	for y := yMin; y <= yMax; y++ {
		cy := d.Origin.Y + (float64(y)+0.5)*side
		xs = xs[:0]
		for _, ring := range rings {
			for i := range ring {
				e := ring.Edge(i)
				a1, b1 := e.A, e.B
				// Half-open test so shared vertices count once.
				if (a1.Y <= cy) == (b1.Y <= cy) {
					continue
				}
				xs = append(xs, a1.X+(cy-a1.Y)*(b1.X-a1.X)/(b1.Y-a1.Y))
			}
		}
		if len(xs) < 2 {
			continue
		}
		sort.Float64s(xs)
		for i := 0; i+1 < len(xs); i += 2 {
			x0, x1 := xs[i], xs[i+1]
			// Cells whose center x satisfies x0 ≤ cx < x1.
			cxStart := int64(math.Ceil((x0-d.Origin.X)/side - 0.5))
			cxEnd := int64(math.Ceil((x1-d.Origin.X)/side-0.5)) - 1
			if cxStart < int64(xMin) {
				cxStart = int64(xMin)
			}
			if cxEnd > int64(xMax) {
				cxEnd = int64(xMax)
			}
			for cx := cxStart; cx <= cxEnd; cx++ {
				centerInside[uint64(y)<<32|uint64(cx)] = struct{}{}
			}
		}
	}

	// Phase 3: assemble according to the mode.
	for key := range centerInside {
		x, y := uint32(key&0xFFFFFFFF), uint32(key>>32)
		if _, isB := boundarySet[key]; isB {
			continue
		}
		a.Interior = append(a.Interior, sfc.FromXY(curve, x, y, level))
	}
	for key := range boundarySet {
		x, y := uint32(key&0xFFFFFFFF), uint32(key>>32)
		if mode == Centroid {
			if _, in := centerInside[key]; !in {
				continue
			}
		}
		a.Boundary = append(a.Boundary, sfc.FromXY(curve, x, y, level))
	}
	slices.Sort(a.Interior)
	slices.Sort(a.Boundary)
	return a
}

// uniformGeneric is the fallback for Region implementations whose rings are
// not accessible: it classifies every cell in the bounding box.
func uniformGeneric(rg geom.Region, d sfc.Domain, curve sfc.Curve, level int, mode Mode) *Approximation {
	a := &Approximation{Domain: d, Curve: curve}
	bb := rg.Bounds().Intersection(d.Bounds())
	if bb.IsEmpty() {
		return a
	}
	xMin, yMin, _ := d.Coord(bb.Min, level)
	xMax, yMax, _ := d.Coord(bb.Max, level)
	for y := yMin; y <= yMax; y++ {
		for x := xMin; x <= xMax; x++ {
			rect := d.CellRect(x, y, level)
			switch rg.RelateRect(rect) {
			case geom.RectInside:
				a.Interior = append(a.Interior, sfc.FromXY(curve, x, y, level))
			case geom.RectPartial:
				if mode == Centroid && !rg.ContainsPoint(rect.Center()) {
					continue
				}
				a.Boundary = append(a.Boundary, sfc.FromXY(curve, x, y, level))
			}
		}
	}
	slices.Sort(a.Interior)
	slices.Sort(a.Boundary)
	return a
}

// traverseEdge visits every cell of the level grid whose closed rectangle
// the segment passes through, by splitting the segment at every grid-line
// crossing and locating the midpoint of each piece.
func traverseEdge(d sfc.Domain, level int, e geom.Segment, mark func(x, y uint32)) {
	side := d.CellSide(level)
	// Gather crossing parameters with vertical and horizontal grid lines.
	ts := []float64{0, 1}
	collect := func(a, b, origin float64) {
		if a == b {
			return
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		kLo := int64(math.Ceil((lo - origin) / side))
		kHi := int64(math.Floor((hi - origin) / side))
		for k := kLo; k <= kHi; k++ {
			g := origin + float64(k)*side
			t := (g - a) / (b - a)
			if t > 0 && t < 1 {
				ts = append(ts, t)
			}
		}
	}
	collect(e.A.X, e.B.X, d.Origin.X)
	collect(e.A.Y, e.B.Y, d.Origin.Y)
	sort.Float64s(ts)
	dir := e.B.Sub(e.A)
	for i := 0; i+1 < len(ts); i++ {
		tm := (ts[i] + ts[i+1]) / 2
		p := e.A.Add(dir.Scale(tm))
		if x, y, ok := d.Coord(p, level); ok {
			mark(x, y)
		}
	}
	// Endpoints may sit exactly on grid lines; mark their cells explicitly.
	if x, y, ok := d.Coord(e.A, level); ok {
		mark(x, y)
	}
	if x, y, ok := d.Coord(e.B, level); ok {
		mark(x, y)
	}
}
