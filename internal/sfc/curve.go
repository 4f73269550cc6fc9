// Package sfc implements the dimensionality-reduction layer of §3 of the
// paper: 2D raster cells are enumerated with a space-filling curve (Z-order
// or Hilbert) and addressed by 64-bit hierarchical cell identifiers, so that
// cells at any level map to contiguous ranges of fine-grained curve
// positions. Indexes then operate on a one-dimensional key space.
package sfc

// MaxLevel is the finest grid level. A level-L grid has 2^L × 2^L cells, so
// curve positions at MaxLevel use 2*MaxLevel = 60 bits and hierarchical cell
// IDs (with their sentinel bit) fit in 61 bits.
const MaxLevel = 30

// Curve enumerates the cells of a 2^level × 2^level grid. Implementations
// must be hierarchical: the position of a cell at level L is the position of
// any of its descendants at level L' > L shifted right by 2*(L'-L). This
// prefix property is what makes a cell at any level a contiguous range of
// leaf positions, and it is property-tested for both implementations.
type Curve interface {
	// Encode returns the curve position of cell (x, y) on the level grid.
	// x and y must be < 2^level.
	Encode(level int, x, y uint32) uint64
	// Decode returns the cell coordinates for a curve position on the level
	// grid.
	Decode(level int, pos uint64) (x, y uint32)
	// Step descends one level without decoding from the root: for a cell in
	// traversal state st (the level-0 cell's is 0) it returns which quadrant
	// (dx, dy ∈ {0, 1}) the cell's digit-th child in curve order occupies,
	// and that child's state. The child of cell (x, y) is (2x+dx, 2y+dy), so
	// stepping along a position's base-4 digits reproduces Decode.
	Step(st uint8, digit int) (dx, dy uint32, next uint8)
	// Name identifies the curve ("morton" or "hilbert").
	Name() string
}

// Morton is the Z-order curve: positions interleave the bits of x and y.
type Morton struct{}

// Name implements Curve.
func (Morton) Name() string { return "morton" }

// spread distributes the low 32 bits of v into the even bit positions.
func spread(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// compact inverts spread.
func compact(v uint64) uint32 {
	x := v & 0x5555555555555555
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0F0F0F0F0F0F0F0F
	x = (x | x>>4) & 0x00FF00FF00FF00FF
	x = (x | x>>8) & 0x0000FFFF0000FFFF
	x = (x | x>>16) & 0x00000000FFFFFFFF
	return uint32(x)
}

// Encode implements Curve.
func (Morton) Encode(_ int, x, y uint32) uint64 {
	return spread(x) | spread(y)<<1
}

// Decode implements Curve.
func (Morton) Decode(_ int, pos uint64) (x, y uint32) {
	return compact(pos), compact(pos >> 1)
}

// Step implements Curve. Z-order has a single state: the digit's low bit is
// x, its high bit y.
func (Morton) Step(_ uint8, digit int) (dx, dy uint32, next uint8) {
	return uint32(digit & 1), uint32(digit >> 1), 0
}

// Hilbert is the Hilbert curve: positions follow the recursive U-shaped
// traversal, giving better locality (fewer range fragments per region cover)
// than Z-order at the cost of a slightly more expensive encode.
//
// Decode runs a precomputed orientation state machine, one table lookup per
// level. Encode runs the same machine four levels at a time: a nibble table
// maps (state, four bits of x, four bits of y) to four position digits and the
// next state, so a MaxLevel key costs two single-level steps and seven nibble
// steps instead of thirty dependent lookups. The textbook rotate-and-flip
// formulation is the test oracle (hilbertEncodeRef in hilbert_test.go).
type Hilbert struct{}

// Name implements Curve.
func (Hilbert) Name() string { return "hilbert" }

// Encode implements Curve.
func (Hilbert) Encode(level int, x, y uint32) uint64 {
	var d uint64
	st := uint8(0)
	i := level
	for ; i&3 != 0; i-- {
		rawq := (x>>uint(i-1)&1)<<1 | (y >> uint(i-1) & 1)
		d = d<<2 | uint64(hilbertEncDigit[st][rawq])
		st = hilbertEncNext[st][rawq]
	}
	for i > 0 {
		i -= 4
		e := hilbertEnc4[st][(x>>uint(i)&15)<<4|(y>>uint(i)&15)]
		d = d<<8 | uint64(e>>3)
		st = uint8(e & 7)
	}
	return d
}

// Decode implements Curve.
func (Hilbert) Decode(level int, pos uint64) (x, y uint32) {
	st := uint8(0)
	for i := level - 1; i >= 0; i-- {
		digit := pos >> (2 * uint(i)) & 3
		rawq := hilbertDecBits[st][digit]
		x = x<<1 | uint32(rawq>>1)
		y = y<<1 | uint32(rawq&1)
		st = hilbertDecNext[st][digit]
	}
	return x, y
}

// Step implements Curve: one transition of the state machine Decode runs.
func (Hilbert) Step(st uint8, digit int) (dx, dy uint32, next uint8) {
	rawq := hilbertDecBits[st][digit]
	return uint32(rawq >> 1), uint32(rawq & 1), hilbertDecNext[st][digit]
}

// State tables for the fast Hilbert codec. A state is the accumulated
// coordinate transformation of the reference algorithm, represented as a
// permutation of the four quadrant bit-pairs; the tables are derived at init
// by composing the reference algorithm's per-quadrant updates, so the two
// implementations agree by construction.
var (
	hilbertEncDigit [8][4]uint8
	hilbertEncNext  [8][4]uint8
	hilbertDecBits  [8][4]uint8
	hilbertDecNext  [8][4]uint8

	// hilbertEnc4[st][xn<<4|yn] is four Encode steps from state st over the
	// nibbles xn, yn: the four digits in bits 3–10, the next state in bits 0–2.
	hilbertEnc4 [8][256]uint16
)

func init() {
	// Quadrant permutations for the two reference updates (acting on
	// q = bx<<1|by):
	//	swap (x,y)→(y,x):                 00→00 01→10 10→01 11→11
	//	flip+swap (x,y)→(s-1-y, s-1-x):   00→11 01→01 10→10 11→00
	swapPerm := [4]uint8{0, 2, 1, 3}
	flipSwapPerm := [4]uint8{3, 1, 2, 0}
	identity := [4]uint8{0, 1, 2, 3}

	compose := func(outer, inner [4]uint8) [4]uint8 { // outer ∘ inner
		var out [4]uint8
		for q := range out {
			out[q] = outer[inner[q]]
		}
		return out
	}

	// Enumerate reachable states (permutations) breadth-first from the
	// identity, assigning stable indices.
	states := [][4]uint8{identity}
	indexOf := func(p [4]uint8) int {
		for i, s := range states {
			if s == p {
				return i
			}
		}
		states = append(states, p)
		return len(states) - 1
	}

	for si := 0; si < len(states); si++ {
		perm := states[si]
		for rawq := 0; rawq < 4; rawq++ {
			tq := perm[rawq]
			rx, ry := tq>>1, tq&1
			digit := (3 * rx) ^ ry
			// Update per the reference: ry==1 → no-op; ry==0 → swap or
			// flip+swap depending on rx. The update applies to subsequent
			// (already transformed) bits, so it composes on the outside.
			next := perm
			if ry == 0 {
				if rx == 1 {
					next = compose(flipSwapPerm, perm)
				} else {
					next = compose(swapPerm, perm)
				}
			}
			ni := indexOf(next)
			if si >= len(hilbertEncDigit) || ni >= len(hilbertEncDigit) {
				panic("sfc: hilbert state space larger than expected")
			}
			hilbertEncDigit[si][rawq] = digit
			hilbertEncNext[si][rawq] = uint8(ni)
			hilbertDecBits[si][digit] = uint8(rawq)
			hilbertDecNext[si][digit] = uint8(ni)
		}
	}

	for st := range hilbertEnc4 {
		for xy := range hilbertEnc4[st] {
			var digits uint16
			s := uint8(st)
			for b := 3; b >= 0; b-- {
				rawq := (xy>>(4+b)&1)<<1 | (xy >> b & 1)
				digits = digits<<2 | uint16(hilbertEncDigit[s][rawq])
				s = hilbertEncNext[s][rawq]
			}
			hilbertEnc4[st][xy] = digits<<3 | uint16(s)
		}
	}
}

// CurveByName returns the curve registered under name, or nil if unknown.
//
//distbound:api the inverse of Curve.Name, for callers that configure the curve as text
func CurveByName(name string) Curve {
	switch name {
	case "morton":
		return Morton{}
	case "hilbert":
		return Hilbert{}
	default:
		return nil
	}
}
