// Package rstar is the exact filter-and-refine baseline of Figures 4 and 6:
// a static R-tree over rectangles, packed once by Sort-Tile-Recursive
// (Leutenegger, López and Edgington, ICDE'97). It stands in for the Boost
// Geometry R*-tree the paper uses in its bulk-loading mode, which packs the
// same way. Nothing in the reproduction adds items after the build, so the
// tree has no dynamic R* insertion.
package rstar

import "distbound/internal/geom"

// DefaultMaxEntries is the node capacity used when BulkLoad is given max ≤ 3.
// The paper notes the Boost baseline was tuned by "manually optimizing the
// number of elements per node"; benchmarks expose the same knob.
const DefaultMaxEntries = 16

// Item is an indexed rectangle with an int32 payload. Points are indexed as
// degenerate rectangles.
type Item struct {
	Rect geom.Rect
	ID   int32
}

type node struct {
	leaf     bool
	bounds   geom.Rect
	children []*node
	items    []Item
}

func (n *node) recomputeBounds() {
	b := geom.EmptyRect()
	for _, it := range n.items {
		b = b.Union(it.Rect)
	}
	for _, c := range n.children {
		b = b.Union(c.bounds)
	}
	n.bounds = b
}

// Tree is an immutable STR-packed R-tree; build it with BulkLoad.
type Tree struct {
	root   *node
	height int
}

// Height returns the tree height (1 for a leaf root).
//
//distbound:oracle the packing tests check the bulk-loaded height with it
func (t *Tree) Height() int { return t.height }

// Bounds returns the root bounding rectangle.
//
//distbound:oracle the invariant tests check the root covers every item with it
func (t *Tree) Bounds() geom.Rect { return t.root.bounds }

// SearchRect calls fn for every item whose rect intersects q, stopping early
// when fn returns false.
func (t *Tree) SearchRect(q geom.Rect, fn func(it Item) bool) {
	t.root.search(q, fn)
}

func (n *node) search(q geom.Rect, fn func(it Item) bool) bool {
	if !n.bounds.Intersects(q) {
		return true
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Rect.Intersects(q) {
				if !fn(it) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !c.search(q, fn) {
			return false
		}
	}
	return true
}

// SearchPoint calls fn for every item whose rect contains p — the MBR
// filtering step of the paper's filter-and-refine baselines — in the order
// SearchRect visits them for the rect {p, p}.
func (t *Tree) SearchPoint(p geom.Point, fn func(it Item) bool) {
	t.root.searchPoint(p, fn)
}

func (n *node) searchPoint(p geom.Point, fn func(it Item) bool) bool {
	if !n.bounds.ContainsPoint(p) {
		return true
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Rect.ContainsPoint(p) && !fn(it) {
				return false
			}
		}
		return true
	}
	for _, c := range n.children {
		if !c.searchPoint(p, fn) {
			return false
		}
	}
	return true
}

// CountRect returns the number of items intersecting q.
func (t *Tree) CountRect(q geom.Rect) int {
	n := 0
	t.SearchRect(q, func(Item) bool { n++; return true })
	return n
}

// MemoryBytes estimates the tree footprint.
func (t *Tree) MemoryBytes() int {
	var walk func(n *node) int
	walk = func(n *node) int {
		b := 64 + 40*len(n.items) + 8*len(n.children)
		for _, c := range n.children {
			b += walk(c)
		}
		return b
	}
	return walk(t.root)
}
