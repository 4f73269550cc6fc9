// Package quadtree implements a bucket PR (point-region) quadtree, one of
// the spatial point-index baselines of Figure 4 (Finkel & Bentley). Space is
// recursively split into four equal quadrants when a bucket overflows, so
// the structure adapts to point skew without data-dependent split choices.
package quadtree

import (
	"distbound/internal/geom"
)

// bucketSize is the leaf capacity before a split.
const bucketSize = 64

// maxDepth caps subdivision so duplicate (or near-duplicate) points cannot
// recurse forever; overflowing max-depth leaves simply grow.
const maxDepth = 30

type entry struct {
	p  geom.Point
	id int32
}

type node struct {
	bounds   geom.Rect
	entries  []entry  // leaf payload
	children *[4]node // nil for leaves
	depth    int
}

// Tree is a PR quadtree over 2D points with int32 payloads.
type Tree struct {
	root node
}

// New returns an empty tree covering bounds; points outside bounds are
// rejected by Insert.
func New(bounds geom.Rect) *Tree {
	return &Tree{root: node{bounds: bounds}}
}

// Build bulk-inserts pts with payloads ids (defaulting to indices when nil)
// into a tree covering their bounding box.
func Build(pts []geom.Point, ids []int32) *Tree {
	bounds := geom.RectFromPoints(pts...)
	// Expand slightly so max-coordinate points fall strictly inside child
	// quadrant tests.
	t := New(bounds.Expand(bounds.Width()*1e-9 + 1e-9))
	for i, p := range pts {
		id := int32(i)
		if ids != nil {
			id = ids[i]
		}
		t.Insert(p, id)
	}
	return t
}

// Bounds returns the tree's coverage rectangle.
//
//distbound:oracle tests search the whole tree with it
func (t *Tree) Bounds() geom.Rect { return t.root.bounds }

// Insert adds a point; it reports false when p is outside the tree bounds.
func (t *Tree) Insert(p geom.Point, id int32) bool {
	if !t.root.bounds.ContainsPoint(p) {
		return false
	}
	n := &t.root
	for n.children != nil {
		n = n.childFor(p)
	}
	n.entries = append(n.entries, entry{p, id})
	if len(n.entries) > bucketSize && n.depth < maxDepth {
		n.split()
	}
	return true
}

// childFor returns the child quadrant containing p (half-open split at the
// center so each point belongs to exactly one child).
func (n *node) childFor(p geom.Point) *node {
	c := n.bounds.Center()
	i := 0
	if p.X >= c.X {
		i |= 1
	}
	if p.Y >= c.Y {
		i |= 2
	}
	return &n.children[i]
}

func (n *node) split() {
	c := n.bounds.Center()
	b := n.bounds
	n.children = &[4]node{
		{bounds: geom.Rect{Min: b.Min, Max: c}, depth: n.depth + 1},
		{bounds: geom.Rect{Min: geom.Pt(c.X, b.Min.Y), Max: geom.Pt(b.Max.X, c.Y)}, depth: n.depth + 1},
		{bounds: geom.Rect{Min: geom.Pt(b.Min.X, c.Y), Max: geom.Pt(c.X, b.Max.Y)}, depth: n.depth + 1},
		{bounds: geom.Rect{Min: c, Max: b.Max}, depth: n.depth + 1},
	}
	for _, e := range n.entries {
		ch := n.childFor(e.p)
		ch.entries = append(ch.entries, e)
	}
	n.entries = nil
}

// SearchRect calls fn for every point inside the closed query rect, stopping
// early when fn returns false.
func (t *Tree) SearchRect(q geom.Rect, fn func(id int32, p geom.Point) bool) {
	t.root.search(q, fn)
}

func (n *node) search(q geom.Rect, fn func(id int32, p geom.Point) bool) bool {
	if !n.bounds.Intersects(q) {
		return true
	}
	if n.children == nil {
		for _, e := range n.entries {
			if q.ContainsPoint(e.p) {
				if !fn(e.id, e.p) {
					return false
				}
			}
		}
		return true
	}
	for i := range n.children {
		if !n.children[i].search(q, fn) {
			return false
		}
	}
	return true
}

// CountRect returns the number of points inside the closed rect.
func (t *Tree) CountRect(q geom.Rect) int {
	n := 0
	t.SearchRect(q, func(int32, geom.Point) bool { n++; return true })
	return n
}
