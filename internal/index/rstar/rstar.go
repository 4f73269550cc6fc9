// Package rstar implements the R*-tree of Beckmann, Kriegel, Schneider and
// Seeger (SIGMOD'90): ChooseSubtree with overlap-minimizing leaf selection,
// the R* topological split (margin-driven axis choice, overlap-driven
// distribution choice) and forced reinsertion on first overflow. It stands
// in for the Boost Geometry R*-tree that the paper uses as its exact
// filter-and-refine baseline in Figures 4 and 6, including its bulk-loading
// mode (provided here via STR packing).
package rstar

import (
	"math"
	"sort"

	"distbound/internal/geom"
)

// DefaultMaxEntries is the node capacity used when New is given max ≤ 3.
// The paper notes the Boost baseline was tuned by "manually optimizing the
// number of elements per node"; benchmarks expose the same knob.
const DefaultMaxEntries = 16

// reinsertFraction is the share of entries removed on forced reinsertion
// (the 30% of the original paper).
const reinsertFraction = 0.3

// Item is an indexed rectangle with an int32 payload.
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

func (n *node) fanout() int {
	if n.leaf {
		return len(n.items)
	}
	return len(n.children)
}

func (n *node) entryRect(i int) geom.Rect {
	if n.leaf {
		return n.items[i].Rect
	}
	return n.children[i].bounds
}

func (n *node) recomputeBounds() {
	b := geom.EmptyRect()
	for i := 0; i < n.fanout(); i++ {
		b = b.Union(n.entryRect(i))
	}
	n.bounds = b
}

// Tree is a dynamic R*-tree.
type Tree struct {
	root       *node
	maxEntries int
	minEntries int
	size       int
	height     int
}

// New returns an empty tree with the given node capacity.
func New(maxEntries int) *Tree {
	if maxEntries <= 3 {
		maxEntries = DefaultMaxEntries
	}
	return &Tree{
		root:       &node{leaf: true, bounds: geom.EmptyRect()},
		maxEntries: maxEntries,
		minEntries: int(math.Max(2, math.Ceil(0.4*float64(maxEntries)))),
		height:     1,
	}
}

// Len returns the number of indexed items.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 for a leaf root).
func (t *Tree) Height() int { return t.height }

// Bounds returns the root bounding rectangle.
func (t *Tree) Bounds() geom.Rect { return t.root.bounds }

// Insert adds an item using the full R* insertion algorithm.
func (t *Tree) Insert(it Item) {
	t.size++
	t.insertItem(it, true)
}

func (t *Tree) insertItem(it Item, allowReinsert bool) {
	path := t.choosePath(it.Rect)
	leaf := path[len(path)-1]
	leaf.items = append(leaf.items, it)
	for _, n := range path {
		n.bounds = n.bounds.Union(it.Rect)
	}
	if len(leaf.items) > t.maxEntries {
		t.overflow(path, allowReinsert)
	}
}

// choosePath descends from the root to the leaf chosen by R* ChooseSubtree,
// returning the root-to-leaf path.
func (t *Tree) choosePath(r geom.Rect) []*node {
	path := []*node{t.root}
	n := t.root
	for !n.leaf {
		var best *node
		if n.children[0].leaf {
			best = chooseByOverlap(n.children, r)
		} else {
			best = chooseByAreaEnlargement(n.children, r)
		}
		path = append(path, best)
		n = best
	}
	return path
}

// chooseByOverlap picks the child whose overlap with its siblings grows
// least when extended by r (ties: least area enlargement, then least area).
func chooseByOverlap(children []*node, r geom.Rect) *node {
	best := children[0]
	bestOverlap, bestEnl, bestArea := math.Inf(1), math.Inf(1), math.Inf(1)
	for i, c := range children {
		ext := c.bounds.Union(r)
		var overlapDelta float64
		for j, o := range children {
			if i == j {
				continue
			}
			overlapDelta += ext.Intersection(o.bounds).Area() - c.bounds.Intersection(o.bounds).Area()
		}
		enl := ext.Area() - c.bounds.Area()
		area := c.bounds.Area()
		if overlapDelta < bestOverlap ||
			(overlapDelta == bestOverlap && enl < bestEnl) ||
			(overlapDelta == bestOverlap && enl == bestEnl && area < bestArea) {
			best, bestOverlap, bestEnl, bestArea = c, overlapDelta, enl, area
		}
	}
	return best
}

// chooseByAreaEnlargement picks the child needing the least area enlargement
// (ties: least area).
func chooseByAreaEnlargement(children []*node, r geom.Rect) *node {
	best := children[0]
	bestEnl, bestArea := math.Inf(1), math.Inf(1)
	for _, c := range children {
		enl := c.bounds.Union(r).Area() - c.bounds.Area()
		area := c.bounds.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = c, enl, area
		}
	}
	return best
}

// overflow resolves an overfull node at the end of path: forced reinsertion
// on the first leaf overflow of an insertion, R* split otherwise. Splits
// propagate toward the root.
func (t *Tree) overflow(path []*node, allowReinsert bool) {
	n := path[len(path)-1]
	if allowReinsert && len(path) > 1 && n.leaf {
		t.reinsert(path)
		return
	}
	left, right := t.split(n)
	if len(path) == 1 {
		// Root split: grow the tree.
		t.root = &node{leaf: false, children: []*node{left, right}}
		t.root.recomputeBounds()
		t.height++
		return
	}
	parent := path[len(path)-2]
	for i, c := range parent.children {
		if c == n {
			parent.children[i] = left
			break
		}
	}
	parent.children = append(parent.children, right)
	parent.recomputeBounds()
	if len(parent.children) > t.maxEntries {
		t.overflow(path[:len(path)-1], false)
	}
}

// reinsert removes the entries farthest from the node's center and inserts
// them again from the top — the R* mechanism that locally rebalances
// instead of splitting.
func (t *Tree) reinsert(path []*node) {
	n := path[len(path)-1]
	c := n.bounds.Center()
	sort.Slice(n.items, func(i, j int) bool {
		return n.items[i].Rect.Center().Dist2(c) < n.items[j].Rect.Center().Dist2(c)
	})
	p := int(reinsertFraction * float64(len(n.items)))
	if p < 1 {
		p = 1
	}
	cut := len(n.items) - p
	removed := append([]Item(nil), n.items[cut:]...)
	n.items = n.items[:cut]
	// Leaf-first so each ancestor sees its children's fresh bounds.
	for i := len(path) - 1; i >= 0; i-- {
		path[i].recomputeBounds()
	}
	for _, it := range removed {
		t.insertItem(it, false)
	}
}

// split performs the R* topological split, returning the two halves. The
// left half reuses n.
func (t *Tree) split(n *node) (*node, *node) {
	count := n.fanout()
	rects := make([]geom.Rect, count)
	for i := range rects {
		rects[i] = n.entryRect(i)
	}
	leftIdx, rightIdx := chooseSplit(rects, t.minEntries)

	right := &node{leaf: n.leaf}
	if n.leaf {
		leftItems := make([]Item, 0, len(leftIdx))
		for _, i := range leftIdx {
			leftItems = append(leftItems, n.items[i])
		}
		for _, i := range rightIdx {
			right.items = append(right.items, n.items[i])
		}
		n.items = leftItems
	} else {
		leftChildren := make([]*node, 0, len(leftIdx))
		for _, i := range leftIdx {
			leftChildren = append(leftChildren, n.children[i])
		}
		for _, i := range rightIdx {
			right.children = append(right.children, n.children[i])
		}
		n.children = leftChildren
	}
	n.recomputeBounds()
	right.recomputeBounds()
	return n, right
}

// chooseSplit implements the R* axis and distribution choice over entry
// rectangles: the split axis minimizes the summed margins of all candidate
// distributions; the distribution on that axis minimizes overlap (ties:
// total area).
func chooseSplit(rects []geom.Rect, minEntries int) (left, right []int) {
	n := len(rects)
	type order struct {
		idx []int
	}
	makeOrder := func(less func(i, j int) bool) order {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return less(idx[a], idx[b]) })
		return order{idx}
	}
	orders := [2][2]order{
		{ // x axis: by min, by max
			makeOrder(func(i, j int) bool { return rects[i].Min.X < rects[j].Min.X }),
			makeOrder(func(i, j int) bool { return rects[i].Max.X < rects[j].Max.X }),
		},
		{ // y axis
			makeOrder(func(i, j int) bool { return rects[i].Min.Y < rects[j].Min.Y }),
			makeOrder(func(i, j int) bool { return rects[i].Max.Y < rects[j].Max.Y }),
		},
	}

	// bbs computes prefix/suffix bounding boxes for an order.
	bbs := func(idx []int) (prefix, suffix []geom.Rect) {
		prefix = make([]geom.Rect, n+1)
		suffix = make([]geom.Rect, n+1)
		prefix[0], suffix[n] = geom.EmptyRect(), geom.EmptyRect()
		for i := 0; i < n; i++ {
			prefix[i+1] = prefix[i].Union(rects[idx[i]])
			suffix[n-1-i] = suffix[n-i].Union(rects[idx[n-1-i]])
		}
		return
	}

	bestAxis, bestMargin := 0, math.Inf(1)
	for axis := 0; axis < 2; axis++ {
		var margin float64
		for _, o := range orders[axis] {
			prefix, suffix := bbs(o.idx)
			for k := minEntries; k <= n-minEntries; k++ {
				margin += prefix[k].Perimeter() + suffix[k].Perimeter()
			}
		}
		if margin < bestMargin {
			bestAxis, bestMargin = axis, margin
		}
	}

	bestOverlap, bestArea := math.Inf(1), math.Inf(1)
	var bestIdx []int
	bestK := 0
	for _, o := range orders[bestAxis] {
		prefix, suffix := bbs(o.idx)
		for k := minEntries; k <= n-minEntries; k++ {
			overlap := prefix[k].Intersection(suffix[k]).Area()
			area := prefix[k].Area() + suffix[k].Area()
			if overlap < bestOverlap || (overlap == bestOverlap && area < bestArea) {
				bestOverlap, bestArea = overlap, area
				bestIdx, bestK = o.idx, k
			}
		}
	}
	return bestIdx[:bestK], bestIdx[bestK:]
}

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
