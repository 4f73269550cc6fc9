// Package act implements the Adaptive Cell Trie (Kipf et al., EDBT'20 /
// ICDE'18), the radix-tree index over linearized hierarchical raster cells
// that §3 and §5.1 of the paper build their approximate point-polygon join
// on. Cells from distance-bounded HR approximations are inserted with a
// polygon payload into a pointer Trie, which is only a builder: Compact
// freezes it into the flat CompactTrie every reader probes, and a point
// lookup walks that with the point's MaxLevel cell and reports every stored
// cell that covers it.
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

// Trie is the build form of an Adaptive Cell Trie mapping hierarchical cells
// to int32 payloads (polygon IDs): cells are inserted, then Compact freezes
// it for lookups. The zero value is not usable; call New.
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
