package raster

import (
	"cmp"
	"slices"

	"distbound/internal/geom"
)

// classifier is a region set prepared for the set descent: one segment table
// over every region's ring edges, and each region's point locator.
//
// The segment table stores each undirected ring edge once, in canonical
// endpoint order (geom.Segment.Canonical), with the ascending list of regions
// that own it: an edge two adjacent regions share — traversed in opposite
// directions by their rings — is one entry with two owners, so a cell tests it
// once for both. It is built by collecting every (edge, region) pair, sorting
// and deduplicating. A cell only needs the segments that met its parent,
// which turns rasterization from O(cells × vertices) into roughly
// O(boundary cells + vertices × levels); the survivors go into a per-depth
// slice the walker owns, so nothing is allocated per cell.
//
// A region is partial in a cell if one of its segments crosses the cell. A
// region no segment crosses is uniformly inside or outside, decided by the
// cell's center alone through a geom.PointLocator, which reads only the ring
// edges whose Y extent holds the center's Y and is exact by construction (see
// its doc) — and asked once per side of a region's chord, not once per cell
// (the side memo, see partial). A region without accessible rings owns no
// segment and is classified by Region.RelateRect at every cell.
type classifier struct {
	segs   []geom.Segment // canonical, sorted, distinct
	bounds []geom.Rect
	ownOff []int32 // segs[i]'s owners are owners[ownOff[i]:ownOff[i+1]]
	owners []int32

	regions  []geom.Region
	contains []func(geom.Point) bool // ContainsPoint, through the locator when rings are accessible
	generic  []bool                  // no ring edges: Region.RelateRect decides every cell
}

func newClassifier(regions []geom.Region) *classifier {
	type owned struct {
		s geom.Segment
		r int32
	}
	n := 0
	for _, rg := range regions {
		for _, p := range geom.Polygons(rg) {
			for _, ring := range p.Rings() {
				n += len(ring)
			}
		}
	}
	all := make([]owned, 0, n)
	cl := &classifier{regions: regions, contains: make([]func(geom.Point) bool, len(regions)), generic: make([]bool, len(regions))}
	for ri, rg := range regions {
		n := len(all)
		for _, p := range geom.Polygons(rg) {
			for _, ring := range p.Rings() {
				for i := range ring {
					all = append(all, owned{ring.Edge(i).Canonical(), int32(ri)})
				}
			}
		}
		cl.generic[ri] = len(all) == n
		cl.contains[ri] = rg.ContainsPoint
		if loc := geom.NewPointLocator(rg); loc != nil {
			cl.contains[ri] = loc.ContainsPoint
		}
	}
	slices.SortFunc(all, func(x, y owned) int {
		if c := cmp.Compare(x.s.A.X, y.s.A.X); c != 0 {
			return c
		}
		if c := cmp.Compare(x.s.A.Y, y.s.A.Y); c != 0 {
			return c
		}
		if c := cmp.Compare(x.s.B.X, y.s.B.X); c != 0 {
			return c
		}
		if c := cmp.Compare(x.s.B.Y, y.s.B.Y); c != 0 {
			return c
		}
		return cmp.Compare(x.r, y.r)
	})
	all = slices.Compact(all)
	distinct := 0
	for i := range all {
		if i == 0 || all[i].s != all[i-1].s {
			distinct++
		}
	}
	cl.segs, cl.bounds = make([]geom.Segment, 0, distinct), make([]geom.Rect, 0, distinct)
	cl.ownOff, cl.owners = make([]int32, 0, distinct+1), make([]int32, len(all))
	for i, o := range all {
		if i == 0 || o.s != all[i-1].s {
			cl.segs = append(cl.segs, o.s)
			cl.bounds = append(cl.bounds, o.s.Bounds())
			cl.ownOff = append(cl.ownOff, int32(i))
		}
		cl.owners[i] = o.r
	}
	cl.ownOff = append(cl.ownOff, int32(len(all)))
	return cl
}

// relate classifies rect for a one-region classifier given the parent's
// candidate segments. For a RectPartial result it also returns the child
// candidate set — the segments that intersect rect — appended to dst, which
// must not alias cand.
func (cl *classifier) relate(rect geom.Rect, cand, dst []int32) (geom.RectRelation, []int32) {
	if cl.generic[0] {
		return cl.regions[0].RelateRect(rect), dst
	}
	for _, si := range cand {
		if rect.Intersects(cl.bounds[si]) && rect.IntersectsCanonicalSegment(cl.segs[si]) {
			dst = append(dst, si)
		}
	}
	if len(dst) > 0 {
		return geom.RectPartial, dst
	}
	if cl.contains[0](rect.Center()) {
		return geom.RectInside, dst
	}
	return geom.RectOutside, dst
}

// rootCand appends the initial candidate set (every segment) to dst.
func (cl *classifier) rootCand(dst []int32) []int32 {
	for i := range cl.segs {
		dst = append(dst, int32(i))
	}
	return dst
}
