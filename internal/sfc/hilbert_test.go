package sfc

import (
	"math/rand"
	"testing"
)

// TestHilbertTablesMatchReference cross-checks the table-driven codec
// against the textbook rotate/flip formulation it was derived from.
func TestHilbertTablesMatchReference(t *testing.T) {
	h := Hilbert{}
	// Exhaustive at small levels.
	for level := 1; level <= 5; level++ {
		n := uint32(1) << uint(level)
		for x := uint32(0); x < n; x++ {
			for y := uint32(0); y < n; y++ {
				want := hilbertEncodeRef(level, x, y)
				if got := h.Encode(level, x, y); got != want {
					t.Fatalf("L%d Encode(%d,%d) = %d, want %d", level, x, y, got, want)
				}
				gx, gy := h.Decode(level, want)
				wx, wy := hilbertDecodeRef(level, want)
				if gx != wx || gy != wy {
					t.Fatalf("L%d Decode(%d) = (%d,%d), want (%d,%d)", level, want, gx, gy, wx, wy)
				}
			}
		}
	}
	// Randomized at full depth.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		level := 1 + rng.Intn(MaxLevel)
		n := uint32(1) << uint(level)
		x, y := rng.Uint32()%n, rng.Uint32()%n
		want := hilbertEncodeRef(level, x, y)
		if got := h.Encode(level, x, y); got != want {
			t.Fatalf("L%d Encode(%d,%d) = %d, want %d", level, x, y, got, want)
		}
		gx, gy := h.Decode(level, want)
		if gx != x || gy != y {
			t.Fatalf("L%d Decode(%d) = (%d,%d), want (%d,%d)", level, want, gx, gy, x, y)
		}
	}
}

// FuzzHilbertEncode holds the nibble-table Encode to the rotate/flip
// reference at every level, x and y masked to the level's grid. The seeds put
// the grid's first and last cell at a level of each residue mod 4 (the count
// of single-level steps before the nibble steps).
func FuzzHilbertEncode(f *testing.F) {
	for _, level := range []uint8{0, 1, 2, 3, 4, 5, 6, 7, 28, 29, 30} {
		last := uint32(1)<<level - 1
		f.Add(level, uint32(0), uint32(0))
		f.Add(level, last, last)
		f.Add(level, last, uint32(0))
		f.Add(level, uint32(0x5a5a5a5a)&last, uint32(0x3c3c3c3c)&last)
	}
	f.Fuzz(func(t *testing.T, lv uint8, x, y uint32) {
		level := int(lv) % (MaxLevel + 1)
		mask := uint32(1)<<uint(level) - 1
		x, y = x&mask, y&mask
		if got, want := (Hilbert{}).Encode(level, x, y), hilbertEncodeRef(level, x, y); got != want {
			t.Fatalf("L%d Encode(%d,%d) = %d, want %d", level, x, y, got, want)
		}
	})
}

func BenchmarkHilbertEncode(b *testing.B) {
	h := Hilbert{}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += h.Encode(MaxLevel, uint32(i)*2654435761, uint32(i)*40503)
	}
	_ = sink
}

func BenchmarkHilbertEncodeRef(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += hilbertEncodeRef(MaxLevel, uint32(i)*2654435761, uint32(i)*40503)
	}
	_ = sink
}

func BenchmarkMortonEncode(b *testing.B) {
	m := Morton{}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Encode(MaxLevel, uint32(i)*2654435761, uint32(i)*40503)
	}
	_ = sink
}

// hilbertEncodeRef is the classic per-level rotate/flip Hilbert encoding
// (Wikipedia's xy2d), used to derive and verify the state tables.
func hilbertEncodeRef(level int, x, y uint32) uint64 {
	var d uint64
	for s := uint32(1) << (uint(level) - 1); s > 0; s >>= 1 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		x, y = hilbertRot(s, x, y, rx, ry)
	}
	return d
}

// hilbertDecodeRef is the classic d2xy inverse.
func hilbertDecodeRef(level int, pos uint64) (x, y uint32) {
	t := pos
	for s := uint32(1); s < uint32(1)<<uint(level); s <<= 1 {
		rx := uint32(t>>1) & 1
		ry := uint32(t^uint64(rx)) & 1
		x, y = hilbertRot(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t >>= 2
	}
	return x, y
}

// hilbertRot rotates/reflects the quadrant-local coordinates.
func hilbertRot(s, x, y, rx, ry uint32) (uint32, uint32) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}
