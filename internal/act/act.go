// Package act implements the Adaptive Cell Trie (Kipf et al., EDBT'20 /
// ICDE'18), the radix-tree index over linearized hierarchical raster cells
// that §3 and §5.1 of the paper build their approximate point-polygon join
// on. Cells from distance-bounded HR approximations are inserted with a
// polygon payload; a point lookup walks the trie with the point's MaxLevel
// cell and reports every stored cell that covers it.
//
// The radix-tree shape gives the two properties the paper highlights over a
// B+-tree or sorted array: matching cells can be found at any level during a
// single root-to-leaf walk (larger cells sit closer to the root and are
// found sooner), and keys are prefix-compressed implicitly because a node's
// path spells the cell prefix.
package act

import (
	"fmt"
	"sort"

	"distbound/internal/sfc"
)

// DefaultStride is the number of quadtree levels consumed per trie node
// (fanout 4^stride = 64).
const DefaultStride = 3

// entry records a cell stored inside a node that is finer than the node's
// own level but coarser than its children: it covers a contiguous range of
// child-resolution slots.
type entry struct {
	lo, hi uint16
	value  int32
}

type node struct {
	// Sparse child array: slots and kids are parallel, sorted by slot.
	slots []uint16
	kids  []*node
	// terminal holds payloads of cells exactly at this node's level.
	terminal []int32
	// entries hold payloads of cells between this node's level and its
	// children's level, as slot ranges at child resolution.
	entries []entry
}

// child looks up the slot with a closure-free binary search: this is the
// innermost operation of every point lookup.
func (n *node) child(slot uint16) *node {
	lo, hi := 0, len(n.slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if n.slots[mid] < slot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.slots) && n.slots[lo] == slot {
		return n.kids[lo]
	}
	return nil
}

func (n *node) ensureChild(slot uint16) *node {
	// A region's cells arrive in ascending curve order, so the slot is
	// usually the last child or past it; search only when it is neither.
	i := len(n.slots)
	if i > 0 && slot <= n.slots[i-1] {
		i = sort.Search(i, func(i int) bool { return n.slots[i] >= slot })
		if n.slots[i] == slot {
			return n.kids[i]
		}
	}
	c := &node{}
	n.slots = append(n.slots, 0)
	copy(n.slots[i+1:], n.slots[i:])
	n.slots[i] = slot
	n.kids = append(n.kids, nil)
	copy(n.kids[i+1:], n.kids[i:])
	n.kids[i] = c
	return c
}

// Trie is an Adaptive Cell Trie mapping hierarchical cells to int32 payloads
// (polygon IDs). The zero value is not usable; call New.
type Trie struct {
	root     *node
	stride   int
	numCells int
}

// New returns an empty trie. stride is the number of quadtree levels per
// trie node and must divide sfc.MaxLevel; stride ≤ 0 selects DefaultStride.
func New(stride int) (*Trie, error) {
	if stride <= 0 {
		stride = DefaultStride
	}
	if sfc.MaxLevel%stride != 0 {
		return nil, fmt.Errorf("act: stride %d must divide MaxLevel %d", stride, sfc.MaxLevel)
	}
	return &Trie{root: &node{}, stride: stride}, nil
}

// MustNew is New that panics on error.
func MustNew(stride int) *Trie {
	t, err := New(stride)
	if err != nil {
		panic(err)
	}
	return t
}

// NumCells returns the number of inserted cells.
func (t *Trie) NumCells() int { return t.numCells }

// Insert adds a cell with a payload value. Inserting the same cell with
// multiple values keeps all of them (adjacent polygons legitimately share
// boundary cells).
func (t *Trie) Insert(id sfc.CellID, value int32) {
	level := id.Level()
	pos := id.Pos()
	d0 := level / t.stride
	rem := level % t.stride

	n := t.root
	for k := 0; k < d0; k++ {
		// Slot of the ancestor path at depth k+1: the 2*stride bits of pos
		// below level (k+1)*stride.
		shift := uint(2 * (level - (k+1)*t.stride))
		slot := uint16(pos >> shift & (1<<(2*uint(t.stride)) - 1))
		n = n.ensureChild(slot)
	}
	if rem == 0 {
		n.terminal = append(n.terminal, value)
	} else {
		// The cell sits rem levels below node n: it covers 4^(stride-rem)
		// consecutive slots at child resolution.
		span := uint16(1) << (2 * uint(t.stride-rem))
		base := uint16(pos&(1<<(2*uint(rem))-1)) * span
		n.entries = append(n.entries, entry{lo: base, hi: base + span - 1, value: value})
	}
	t.numCells++
}

// InsertCells adds all cells with the same payload.
func (t *Trie) InsertCells(ids []sfc.CellID, value int32) {
	for _, id := range ids {
		t.Insert(id, value)
	}
}

// Lookup walks the trie with a MaxLevel curve position and calls fn for
// every stored cell that covers it, stopping early when fn returns false.
// This is the approximate containment query: no exact geometry is touched.
func (t *Trie) Lookup(pos uint64, fn func(value int32) bool) {
	n := t.root
	depth := 0
	maxDepth := sfc.MaxLevel / t.stride
	for {
		for _, v := range n.terminal {
			if !fn(v) {
				return
			}
		}
		if depth == maxDepth {
			return
		}
		shift := uint(2 * (sfc.MaxLevel - (depth+1)*t.stride))
		slot := uint16(pos >> shift & (1<<(2*uint(t.stride)) - 1))
		for _, e := range n.entries {
			if e.lo <= slot && slot <= e.hi {
				if !fn(e.value) {
					return
				}
			}
		}
		c := n.child(slot)
		if c == nil {
			return
		}
		n = c
		depth++
	}
}

// LookupFirst returns the first covering cell's payload, or -1 when the
// position is uncovered. Because larger cells are stored closer to the root,
// the first hit is the coarsest covering cell — the paper's fast path for
// partition data where a point belongs to (at most) one region.
func (t *Trie) LookupFirst(pos uint64) int32 {
	n := t.root
	maxDepth := sfc.MaxLevel / t.stride
	strideBits := 2 * uint(t.stride)
	mask := uint64(1)<<strideBits - 1
	for depth := 0; ; depth++ {
		if len(n.terminal) > 0 {
			return n.terminal[0]
		}
		if depth == maxDepth {
			return -1
		}
		slot := uint16(pos >> (2*sfc.MaxLevel - strideBits*uint(depth+1)) & mask)
		for i := range n.entries {
			if n.entries[i].lo <= slot && slot <= n.entries[i].hi {
				return n.entries[i].value
			}
		}
		c := n.child(slot)
		if c == nil {
			return -1
		}
		n = c
	}
}

// LookupAppend appends every covering payload to buf and returns it — the
// allocation-free batch form of Lookup used by the join engines, which call
// it once per point.
func (t *Trie) LookupAppend(pos uint64, buf []int32) []int32 {
	n := t.root
	maxDepth := sfc.MaxLevel / t.stride
	strideBits := 2 * uint(t.stride)
	mask := uint64(1)<<strideBits - 1
	for depth := 0; ; depth++ {
		buf = append(buf, n.terminal...)
		if depth == maxDepth {
			return buf
		}
		slot := uint16(pos >> (2*sfc.MaxLevel - strideBits*uint(depth+1)) & mask)
		for i := range n.entries {
			if n.entries[i].lo <= slot && slot <= n.entries[i].hi {
				buf = append(buf, n.entries[i].value)
			}
		}
		c := n.child(slot)
		if c == nil {
			return buf
		}
		n = c
	}
}

// LookupAll returns all covering payloads (deduplicated, order of
// discovery).
func (t *Trie) LookupAll(pos uint64) []int32 {
	var out []int32
	t.Lookup(pos, func(v int32) bool {
		for _, x := range out {
			if x == v {
				return true
			}
		}
		out = append(out, v)
		return true
	})
	return out
}

// NumNodes returns the trie node count.
func (t *Trie) NumNodes() int {
	var walk func(n *node) int
	walk = func(n *node) int {
		c := 1
		for _, k := range n.kids {
			c += walk(k)
		}
		return c
	}
	return walk(t.root)
}

// MemoryBytes estimates the trie footprint — the quantity §5.1 reports when
// noting that ACT trades memory for approximation accuracy.
func (t *Trie) MemoryBytes() int {
	var walk func(n *node) int
	walk = func(n *node) int {
		b := 80 + 2*len(n.slots) + 8*len(n.kids) + 8*len(n.entries) + 4*len(n.terminal)
		for _, k := range n.kids {
			b += walk(k)
		}
		return b
	}
	return walk(t.root)
}

// Height returns the maximum node depth in use.
func (t *Trie) Height() int {
	var walk func(n *node) int
	walk = func(n *node) int {
		h := 0
		for _, k := range n.kids {
			if ch := walk(k) + 1; ch > h {
				h = ch
			}
		}
		return h
	}
	return walk(t.root)
}
