package rstar

import (
	"math"
	"sort"

	"distbound/internal/geom"
)

// BulkLoad builds a tree from items with Sort-Tile-Recursive packing — the
// "bulk-loading mode" of the Boost R*-tree used by the paper's experiments.
// maxEntries ≤ 3 selects DefaultMaxEntries; no items give an empty tree of
// height 1.
func BulkLoad(items []Item, maxEntries int) *Tree {
	if maxEntries <= 3 {
		maxEntries = DefaultMaxEntries
	}
	t := &Tree{root: &node{leaf: true, bounds: geom.EmptyRect()}, size: len(items), height: 1}
	if len(items) == 0 {
		return t
	}
	its := append([]Item(nil), items...)
	level := packLeafLevel(its, maxEntries)
	for len(level) > 1 {
		level = packInternalLevel(level, maxEntries)
		t.height++
	}
	t.root = level[0]
	return t
}

func packLeafLevel(items []Item, fanout int) []*node {
	nLeaves := (len(items) + fanout - 1) / fanout
	nSlices := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	sliceCap := nSlices * fanout
	sort.Slice(items, func(i, j int) bool {
		return items[i].Rect.Center().X < items[j].Rect.Center().X
	})
	var out []*node
	for s := 0; s < len(items); s += sliceCap {
		e := min(s+sliceCap, len(items))
		slice := items[s:e]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Rect.Center().Y < slice[j].Rect.Center().Y
		})
		for i := 0; i < len(slice); i += fanout {
			j := min(i+fanout, len(slice))
			n := &node{leaf: true, items: append([]Item(nil), slice[i:j]...)}
			n.recomputeBounds()
			out = append(out, n)
		}
	}
	return out
}

func packInternalLevel(children []*node, fanout int) []*node {
	nParents := (len(children) + fanout - 1) / fanout
	nSlices := int(math.Ceil(math.Sqrt(float64(nParents))))
	sliceCap := nSlices * fanout
	sort.Slice(children, func(i, j int) bool {
		return children[i].bounds.Center().X < children[j].bounds.Center().X
	})
	var out []*node
	for s := 0; s < len(children); s += sliceCap {
		e := min(s+sliceCap, len(children))
		slice := children[s:e]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].bounds.Center().Y < slice[j].bounds.Center().Y
		})
		for i := 0; i < len(slice); i += fanout {
			j := min(i+fanout, len(slice))
			n := &node{children: append([]*node(nil), slice[i:j]...)}
			n.recomputeBounds()
			out = append(out, n)
		}
	}
	return out
}
