// Package kdtree implements a static bucket k-d tree over 2D points, one of
// the tuned in-memory spatial baselines from "The Case for Learned Spatial
// Indexes" (Pandey et al.) that Figure 4 of the paper compares against. The
// tree is built bottom-up by recursive median splits on alternating axes and
// answers axis-aligned range queries.
package kdtree

import (
	"distbound/internal/geom"
)

// leafSize is the bucket capacity at which recursion stops; small enough for
// cheap leaf scans, large enough to keep the tree shallow.
const leafSize = 32

type node struct {
	// Internal nodes.
	axis  int8 // 0 = x, 1 = y
	split float64
	left  *node
	right *node
	// Leaves.
	start, end int32 // range into the tree's point/id arrays
}

func (n *node) leaf() bool { return n.left == nil }

// Tree is an immutable k-d tree over points with int32 payload IDs.
type Tree struct {
	root *node
	pts  []geom.Point
	ids  []int32
}

// Build constructs a tree over pts; ids[i] is the payload for pts[i]. When
// ids is nil the payloads default to the point positions 0..n-1.
func Build(pts []geom.Point, ids []int32) *Tree {
	t := &Tree{
		pts: append([]geom.Point(nil), pts...),
	}
	if ids == nil {
		t.ids = make([]int32, len(pts))
		for i := range t.ids {
			t.ids[i] = int32(i)
		}
	} else {
		t.ids = append([]int32(nil), ids...)
	}
	t.root = t.build(0, len(t.pts), 0)
	return t
}

func (t *Tree) build(start, end, depth int) *node {
	if end-start <= leafSize {
		return &node{start: int32(start), end: int32(end), axis: -1}
	}
	axis := int8(depth % 2)
	mid := (start + end) / 2
	sub := struct {
		pts []geom.Point
		ids []int32
	}{t.pts[start:end], t.ids[start:end]}
	less := func(i, j int) bool {
		if axis == 0 {
			return sub.pts[i].X < sub.pts[j].X
		}
		return sub.pts[i].Y < sub.pts[j].Y
	}
	swap := func(i, j int) {
		sub.pts[i], sub.pts[j] = sub.pts[j], sub.pts[i]
		sub.ids[i], sub.ids[j] = sub.ids[j], sub.ids[i]
	}
	quickSelect(mid-start, end-start, less, swap)
	var split float64
	if axis == 0 {
		split = t.pts[mid].X
	} else {
		split = t.pts[mid].Y
	}
	return &node{
		axis:  axis,
		split: split,
		left:  t.build(start, mid, depth+1),
		right: t.build(mid, end, depth+1),
	}
}

// quickSelect partially orders [0, n) so that element k is in its sorted
// position and everything before it is ≤ it (Hoare selection with
// median-of-three pivots and an insertion-sort fallback).
func quickSelect(k, n int, less func(i, j int) bool, swap func(i, j int)) {
	lo, hi := 0, n-1
	for hi > lo {
		if hi-lo < 8 {
			// Insertion sort the small range.
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && less(j, j-1); j-- {
					swap(j, j-1)
				}
			}
			return
		}
		// Median-of-three pivot to hi.
		mid := lo + (hi-lo)/2
		if less(mid, lo) {
			swap(mid, lo)
		}
		if less(hi, lo) {
			swap(hi, lo)
		}
		if less(hi, mid) {
			swap(hi, mid)
		}
		swap(mid, hi)
		// Lomuto partition.
		p := lo
		for i := lo; i < hi; i++ {
			if less(i, hi) {
				swap(i, p)
				p++
			}
		}
		swap(p, hi)
		switch {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// SearchRect calls fn for every indexed point inside the closed rect,
// stopping early when fn returns false.
func (t *Tree) SearchRect(q geom.Rect, fn func(id int32, p geom.Point) bool) {
	t.search(t.root, q, fn)
}

func (t *Tree) search(n *node, q geom.Rect, fn func(id int32, p geom.Point) bool) bool {
	if n.leaf() {
		for i := n.start; i < n.end; i++ {
			if p := t.pts[i]; q.ContainsPoint(p) {
				if !fn(t.ids[i], p) {
					return false
				}
			}
		}
		return true
	}
	var lo, hi float64
	if n.axis == 0 {
		lo, hi = q.Min.X, q.Max.X
	} else {
		lo, hi = q.Min.Y, q.Max.Y
	}
	// Left subtree holds values ≤ split, right subtree values ≥ split.
	if lo <= n.split {
		if !t.search(n.left, q, fn) {
			return false
		}
	}
	if hi >= n.split {
		if !t.search(n.right, q, fn) {
			return false
		}
	}
	return true
}

// CountRect returns the number of indexed points inside the closed rect.
func (t *Tree) CountRect(q geom.Rect) int {
	n := 0
	t.SearchRect(q, func(int32, geom.Point) bool { n++; return true })
	return n
}
