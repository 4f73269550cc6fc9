package raster

import "distbound/internal/geom"

// classifier performs cell-vs-region classification, doing per cell only the
// work that is new at that cell. Edge-set pruning: a child cell only needs
// the boundary edges that intersected its parent, which turns hierarchical
// rasterization from O(cells × vertices) into roughly O(boundary cells +
// vertices × levels) — it matters for the paper's complex Borough polygons
// (hundreds of vertices each) — and the survivors go into a caller-owned
// slice, so nothing is allocated per cell. A cell no edge meets is uniformly
// inside or outside, decided by its center alone through a
// geom.PointLocator, which reads only the ring edges whose Y extent holds the
// center's Y and is exact by construction (see its doc).
type classifier struct {
	region   geom.Region
	contains func(geom.Point) bool // region.ContainsPoint, through the locator when rings are accessible
	edges    []geom.Segment
	bounds   []geom.Rect
}

func newClassifier(rg geom.Region) *classifier {
	cl := &classifier{region: rg}
	for _, p := range geom.Polygons(rg) {
		for _, ring := range p.Rings() {
			for i := range ring {
				e := ring.Edge(i)
				cl.edges = append(cl.edges, e)
				cl.bounds = append(cl.bounds, e.Bounds())
			}
		}
	}
	cl.contains = rg.ContainsPoint
	if loc := geom.NewPointLocator(rg); loc != nil {
		cl.contains = loc.ContainsPoint
	}
	return cl
}

// generic reports whether the classifier must fall back to Region.RelateRect
// because the region's rings are not accessible.
func (cl *classifier) generic() bool { return cl.edges == nil }

// rootCand appends the initial candidate edge set (all edges) to dst.
func (cl *classifier) rootCand(dst []int32) []int32 {
	for i := range cl.edges {
		dst = append(dst, int32(i))
	}
	return dst
}

// relate classifies rect given the parent's candidate edges. For a
// RectPartial result it also returns the child candidate set — the edges
// that intersect rect — appended to the empty dst, which must not alias cand.
func (cl *classifier) relate(rect geom.Rect, cand, dst []int32) (geom.RectRelation, []int32) {
	if cl.generic() {
		return cl.region.RelateRect(rect), dst
	}
	for _, ei := range cand {
		if rect.Intersects(cl.bounds[ei]) && rect.IntersectsSegment(cl.edges[ei]) {
			dst = append(dst, ei)
		}
	}
	if len(dst) > 0 {
		return geom.RectPartial, dst
	}
	// No boundary passes through the rect: it is uniformly inside or
	// outside, decided by one representative point.
	if cl.contains(rect.Center()) {
		return geom.RectInside, dst
	}
	return geom.RectOutside, dst
}
