package raster

import "distbound/internal/sfc"

// Set operations between approximations, realizing the §4 claim that once
// geometries are mapped to cells, primitive operations like intersection
// tests become geometry-independent: "both point-polygon and polygon-polygon
// intersection tests boil down to" operations on the cell representation.
// Two regions intersect (up to the distance bound) exactly when their
// approximations share a leaf position, which is a sort-merge over their 1D
// range lists — no polygon clipping, no edge-pair tests.

// Intersects reports whether the two approximations share at least one leaf
// position. For conservative approximations a false answer proves the
// regions are disjoint; a true answer means the regions are within the sum
// of the two distance bounds of intersecting.
func Intersects(a, b *Approximation) bool {
	ra, rb := a.Ranges(), b.Ranges()
	i, j := 0, 0
	for i < len(ra) && j < len(rb) {
		if ra[i].Hi < rb[j].Lo {
			i++
		} else if rb[j].Hi < ra[i].Lo {
			j++
		} else {
			return true
		}
	}
	return false
}

// OverlapLeafCount returns the number of leaf positions shared by the two
// approximations — the cell-level measure of overlap.
func OverlapLeafCount(a, b *Approximation) uint64 {
	ra, rb := a.Ranges(), b.Ranges()
	var total uint64
	i, j := 0, 0
	for i < len(ra) && j < len(rb) {
		lo := max(ra[i].Lo, rb[j].Lo)
		hi := min(ra[i].Hi, rb[j].Hi)
		if lo <= hi {
			total += hi - lo + 1
		}
		if ra[i].Hi < rb[j].Hi {
			i++
		} else {
			j++
		}
	}
	return total
}

// OverlapArea returns the area of the intersection of the two cell unions,
// an ε-accurate estimate of the regions' intersection area. Both
// approximations must share the same Domain.
func OverlapArea(a, b *Approximation) float64 {
	side := a.Domain.CellSide(sfc.MaxLevel)
	return float64(OverlapLeafCount(a, b)) * side * side
}
