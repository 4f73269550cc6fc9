package act

import "distbound/internal/sfc"

// CompactTrie is a frozen, read-optimized representation of a Trie: all
// nodes live in flat arrays (children stored as interleaved slot/index pairs
// in depth-first order), eliminating per-node pointer chasing and slice
// headers. Point lookups touch one contiguous node record plus one child
// array region per level. Building indexes is a one-time cost in the
// paper's setting, so the join engines freeze their tries after
// construction.
type CompactTrie struct {
	stride int
	nodes  []compactNode
	kids   []childRef
	ents   []entry
	terms  []int32
}

type compactNode struct {
	kidOff  int32
	entOff  int32
	termOff int32
	kidCnt  uint16
	entCnt  uint16
	termCnt uint16
}

type childRef struct {
	slot uint16
	idx  int32
}

// Compact freezes the trie into its read-optimized form.
func (t *Trie) Compact() *CompactTrie {
	c := &CompactTrie{stride: t.stride}
	// First pass: count storage.
	var nNodes, nKids, nEnts, nTerms int
	var count func(n *node)
	count = func(n *node) {
		nNodes++
		nKids += len(n.kids)
		nEnts += len(n.entries)
		nTerms += len(n.terminal)
		for _, k := range n.kids {
			count(k)
		}
	}
	count(t.root)
	c.nodes = make([]compactNode, 0, nNodes)
	c.kids = make([]childRef, 0, nKids)
	c.ents = make([]entry, 0, nEnts)
	c.terms = make([]int32, 0, nTerms)

	// Second pass: lay out nodes depth-first. Child indices are assigned
	// before recursing so that a node's children are contiguous.
	var layout func(n *node, self int32)
	layout = func(n *node, self int32) {
		rec := &c.nodes[self]
		rec.kidOff = int32(len(c.kids))
		rec.kidCnt = uint16(len(n.kids))
		rec.entOff = int32(len(c.ents))
		rec.entCnt = uint16(len(n.entries))
		rec.termOff = int32(len(c.terms))
		rec.termCnt = uint16(len(n.terminal))
		c.ents = append(c.ents, n.entries...)
		c.terms = append(c.terms, n.terminal...)
		base := len(c.kids)
		for _, slot := range n.slots {
			c.kids = append(c.kids, childRef{slot: slot})
		}
		for i := range n.kids {
			childIdx := int32(len(c.nodes))
			c.nodes = append(c.nodes, compactNode{})
			c.kids[base+i].idx = childIdx
			layout(n.kids[i], childIdx)
		}
	}
	c.nodes = append(c.nodes, compactNode{})
	layout(t.root, 0)
	return c
}

// LookupAppend appends every payload whose cell covers the MaxLevel curve
// position to buf, coarsest cell first: a root-to-leaf walk reports a node's
// own-level cells, then the entries covering the probe's slot.
func (c *CompactTrie) LookupAppend(pos uint64, buf []int32) []int32 {
	ni := int32(0)
	maxDepth := sfc.MaxLevel / c.stride
	strideBits := 2 * uint(c.stride)
	mask := uint64(1)<<strideBits - 1
	for depth := 0; ; depth++ {
		n := &c.nodes[ni]
		if n.termCnt > 0 {
			buf = append(buf, c.terms[n.termOff:n.termOff+int32(n.termCnt)]...)
		}
		if depth == maxDepth {
			return buf
		}
		slot := uint16(pos >> (2*sfc.MaxLevel - strideBits*uint(depth+1)) & mask)
		if n.entCnt > 0 {
			for _, e := range c.ents[n.entOff : n.entOff+int32(n.entCnt)] {
				if e.lo <= slot && slot <= e.hi {
					buf = append(buf, e.value)
				}
			}
		}
		kids := c.kids[n.kidOff : n.kidOff+int32(n.kidCnt)]
		lo, hi := 0, len(kids)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if kids[mid].slot < slot {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(kids) || kids[lo].slot != slot {
			return buf
		}
		ni = kids[lo].idx
	}
}

// LookupFirst returns the first (coarsest) covering payload, or -1.
func (c *CompactTrie) LookupFirst(pos uint64) int32 {
	ni := int32(0)
	maxDepth := sfc.MaxLevel / c.stride
	strideBits := 2 * uint(c.stride)
	mask := uint64(1)<<strideBits - 1
	for depth := 0; ; depth++ {
		n := &c.nodes[ni]
		if n.termCnt > 0 {
			return c.terms[n.termOff]
		}
		if depth == maxDepth {
			return -1
		}
		slot := uint16(pos >> (2*sfc.MaxLevel - strideBits*uint(depth+1)) & mask)
		if n.entCnt > 0 {
			for _, e := range c.ents[n.entOff : n.entOff+int32(n.entCnt)] {
				if e.lo <= slot && slot <= e.hi {
					return e.value
				}
			}
		}
		kids := c.kids[n.kidOff : n.kidOff+int32(n.kidCnt)]
		lo, hi := 0, len(kids)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if kids[mid].slot < slot {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(kids) || kids[lo].slot != slot {
			return -1
		}
		ni = kids[lo].idx
	}
}

// MemoryBytes returns the frozen footprint.
func (c *CompactTrie) MemoryBytes() int {
	return 20*len(c.nodes) + 8*len(c.kids) + 8*len(c.ents) + 4*len(c.terms) + 64
}
