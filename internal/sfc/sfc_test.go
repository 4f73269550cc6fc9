package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"distbound/internal/geom"
)

var curves = []Curve{Morton{}, Hilbert{}}

func TestCurveRoundTrip(t *testing.T) {
	for _, c := range curves {
		rng := rand.New(rand.NewSource(1))
		for level := 1; level <= MaxLevel; level += 3 {
			n := uint32(1) << uint(level)
			for i := 0; i < 200; i++ {
				x := rng.Uint32() % n
				y := rng.Uint32() % n
				pos := c.Encode(level, x, y)
				if pos >= uint64(n)*uint64(n) {
					t.Fatalf("%s L%d: pos %d out of range", c.Name(), level, pos)
				}
				gx, gy := c.Decode(level, pos)
				if gx != x || gy != y {
					t.Fatalf("%s L%d: round trip (%d,%d) -> %d -> (%d,%d)", c.Name(), level, x, y, pos, gx, gy)
				}
			}
		}
	}
}

func TestCurveBijectiveSmallGrid(t *testing.T) {
	// Exhaustive bijectivity on an 8x8 grid.
	for _, c := range curves {
		const level = 3
		seen := make(map[uint64][2]uint32)
		for x := uint32(0); x < 8; x++ {
			for y := uint32(0); y < 8; y++ {
				pos := c.Encode(level, x, y)
				if pos >= 64 {
					t.Fatalf("%s: pos %d ≥ 64", c.Name(), pos)
				}
				if prev, dup := seen[pos]; dup {
					t.Fatalf("%s: collision at pos %d: %v and (%d,%d)", c.Name(), pos, prev, x, y)
				}
				seen[pos] = [2]uint32{x, y}
			}
		}
		if len(seen) != 64 {
			t.Fatalf("%s: %d distinct positions", c.Name(), len(seen))
		}
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// Consecutive Hilbert positions are 4-neighbours — the locality property
	// Z-order lacks.
	h := Hilbert{}
	const level = 6
	n := uint64(1) << (2 * level)
	px, py := h.Decode(level, 0)
	for pos := uint64(1); pos < n; pos++ {
		x, y := h.Decode(level, pos)
		dx := int64(x) - int64(px)
		dy := int64(y) - int64(py)
		if dx*dx+dy*dy != 1 {
			t.Fatalf("positions %d->%d jump from (%d,%d) to (%d,%d)", pos-1, pos, px, py, x, y)
		}
		px, py = x, y
	}
}

func TestCurvePrefixProperty(t *testing.T) {
	// The position of a cell at level L is the truncated position of any
	// descendant: this is what makes hierarchical cells contiguous 1D ranges.
	for _, c := range curves {
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 500; i++ {
			x := rng.Uint32() >> 2 // 30-bit
			y := rng.Uint32() >> 2
			leaf := c.Encode(MaxLevel, x, y)
			level := 1 + rng.Intn(MaxLevel)
			shift := uint(MaxLevel - level)
			parent := c.Encode(level, x>>shift, y>>shift)
			if leaf>>(2*shift) != parent {
				t.Fatalf("%s: prefix property fails at level %d for (%d,%d): leaf=%d parent=%d",
					c.Name(), level, x, y, leaf, parent)
			}
		}
	}
}

func TestCellIDBasics(t *testing.T) {
	id := FromPosLevel(5, 10)
	if !id.IsValid() {
		t.Fatal("valid id reported invalid")
	}
	if id.Level() != 10 {
		t.Errorf("Level = %d, want 10", id.Level())
	}
	if id.Pos() != 5 {
		t.Errorf("Pos = %d, want 5", id.Pos())
	}
	if leaf := FromPosLevel(123456, MaxLevel); leaf.Level() != MaxLevel || leaf.Pos() != 123456 {
		t.Errorf("leaf cell = %v", leaf)
	}
	if CellID(0).IsValid() {
		t.Error("zero id should be invalid")
	}
	if CellID(2).IsValid() { // sentinel at odd bit position
		t.Error("odd-sentinel id should be invalid")
	}
}

func TestCellIDParentChildren(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		level := 1 + rng.Intn(MaxLevel)
		pos := rng.Uint64() & ((uint64(1) << (2 * uint(level))) - 1)
		id := FromPosLevel(pos, level)
		parent := id.Parent()
		if parent.Level() != level-1 {
			t.Fatalf("parent level = %d, want %d", parent.Level(), level-1)
		}
		if parent.Pos() != pos>>2 {
			t.Fatalf("parent pos = %d, want %d", parent.Pos(), pos>>2)
		}
		if !parent.Contains(id) {
			t.Fatal("parent does not contain child")
		}
		if id.Level() < MaxLevel {
			kids := id.Children()
			for k, kid := range kids {
				if kid.Parent() != id {
					t.Fatalf("child %d parent mismatch", k)
				}
				if kid.Pos() != pos<<2|uint64(k) {
					t.Fatalf("child %d pos = %d, want %d", k, kid.Pos(), pos<<2|uint64(k))
				}
			}
			// Children tile the parent's leaf range contiguously.
			if kids[0].RangeMin() != id.RangeMin() || kids[3].RangeMax() != id.RangeMax() {
				t.Fatal("children do not tile parent range")
			}
			for k := 0; k < 3; k++ {
				if uint64(kids[k].RangeMax())+2 != uint64(kids[k+1].RangeMin()) {
					t.Fatalf("gap between children %d and %d", k, k+1)
				}
			}
		}
	}
}

func TestCellIDContainment(t *testing.T) {
	f := func(rawPos uint64, rawLevel uint8, rawSub uint64) bool {
		level := int(rawLevel) % (MaxLevel + 1)
		pos := rawPos & ((uint64(1) << (2 * uint(level))) - 1)
		id := FromPosLevel(pos, level)
		// Build a random descendant.
		subLevels := int(rawSub % uint64(MaxLevel-level+1))
		subPos := pos<<(2*uint(subLevels)) | (rawSub & ((uint64(1) << (2 * uint(subLevels))) - 1))
		desc := FromPosLevel(subPos, level+subLevels)
		if !id.Contains(desc) {
			return false
		}
		// A sibling (if one exists at this level) must not be contained.
		if level > 0 {
			sibPos := pos ^ 1
			sib := FromPosLevel(sibPos, level)
			if id.Contains(sib) || sib.Contains(desc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestLeafPosRange(t *testing.T) {
	id := FromPosLevel(3, 1) // quadrant 3 of the domain
	lo, hi := id.LeafPosRange()
	wantLo := uint64(3) << (2 * (MaxLevel - 1))
	wantHi := uint64(4)<<(2*(MaxLevel-1)) - 1
	if lo != wantLo || hi != wantHi {
		t.Errorf("LeafPosRange = [%d, %d], want [%d, %d]", lo, hi, wantLo, wantHi)
	}
	leaf := FromPosLevel(42, MaxLevel)
	lo, hi = leaf.LeafPosRange()
	if lo != 42 || hi != 42 {
		t.Errorf("leaf LeafPosRange = [%d, %d]", lo, hi)
	}
}

func TestDomainCoordAndRect(t *testing.T) {
	d, err := NewDomain(geom.Pt(0, 0), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.CellSide(10); got != 1 {
		t.Errorf("CellSide(10) = %v, want 1", got)
	}
	x, y, ok := d.Coord(geom.Pt(513.5, 2.25), 10)
	if !ok || x != 513 || y != 2 {
		t.Errorf("Coord = (%d,%d,%v)", x, y, ok)
	}
	r := d.CellRect(513, 2, 10)
	if r.Min != geom.Pt(513, 2) || r.Max != geom.Pt(514, 3) {
		t.Errorf("CellRect = %v", r)
	}
	// Outside points clamp but report !ok.
	x, y, ok = d.Coord(geom.Pt(-5, 2000), 10)
	if ok || x != 0 || y != 1023 {
		t.Errorf("outside Coord = (%d,%d,%v)", x, y, ok)
	}
	if _, err := NewDomain(geom.Pt(0, 0), 0); err == nil {
		t.Error("zero-size domain accepted")
	}
}

func TestDomainLevelForBound(t *testing.T) {
	d, _ := NewDomain(geom.Pt(0, 0), 65536)
	for _, eps := range []float64{1, 2, 4, 10, 100} {
		level := d.LevelForBound(eps)
		if d.CellDiagonal(level) > eps {
			t.Errorf("eps=%v: level %d diagonal %v exceeds bound", eps, level, d.CellDiagonal(level))
		}
		if level > 0 && d.CellDiagonal(level-1) <= eps {
			t.Errorf("eps=%v: level %d not the coarsest", eps, level)
		}
	}
	if got := d.LevelForBound(0); got != MaxLevel {
		t.Errorf("LevelForBound(0) = %d", got)
	}
}

func TestDomainForRect(t *testing.T) {
	r := geom.Rect{Min: geom.Pt(10, 20), Max: geom.Pt(110, 70)}
	d := DomainForRect(r)
	if !d.Bounds().ContainsRect(r) {
		t.Errorf("domain %v does not contain %v", d.Bounds(), r)
	}
	// Corner points must map strictly inside.
	for _, p := range r.Corners() {
		if _, _, ok := d.Coord(p, MaxLevel); !ok {
			t.Errorf("corner %v outside domain", p)
		}
	}
}

func TestLeafPosRoundTripThroughDomain(t *testing.T) {
	d, _ := NewDomain(geom.Pt(-100, -100), 200)
	for _, c := range curves {
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 300; i++ {
			p := geom.Pt(rng.Float64()*200-100, rng.Float64()*200-100)
			pos, ok := d.LeafPos(c, p)
			if !ok {
				t.Fatalf("%s: in-domain point reported outside", c.Name())
			}
			id := FromPosLevel(pos, MaxLevel)
			rect := d.CellIDRect(c, id)
			if !rect.Expand(1e-9).ContainsPoint(p) {
				t.Fatalf("%s: leaf cell %v does not contain %v", c.Name(), rect, p)
			}
			// The leaf must be inside every ancestor's pos range.
			for level := 0; level < MaxLevel; level += 5 {
				anc := FromPosLevel(pos>>uint(2*(MaxLevel-level)), level)
				lo, hi := anc.LeafPosRange()
				if pos < lo || pos > hi {
					t.Fatalf("%s: leaf pos outside ancestor range at level %d", c.Name(), level)
				}
			}
		}
	}
}

func TestCellIDString(t *testing.T) {
	if s := FromPosLevel(5, 3).String(); s != "cell(L3 pos=5)" {
		t.Errorf("String = %q", s)
	}
	if s := CellID(0).String(); s == "" {
		t.Error("invalid id String empty")
	}
}

// TestStepReproducesDecodeInCurveOrder pins the two properties the
// rasterizer's sort-free descent rests on. Stepping from the root along a
// position's base-4 digits lands on Decode's cell at every level; and at
// every cell on the way, Children() is strictly ascending with contiguous
// leaf ranges that tile the parent's, child k being the cell Step(·, k)
// names — so visiting children in Step order emits ascending CellIDs. A
// curve that breaks either fails here, not in a cover.
func TestStepReproducesDecodeInCurveOrder(t *testing.T) {
	for _, c := range curves {
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < 300; i++ {
			leaf := rng.Uint64() >> (64 - 2*MaxLevel)
			var x, y uint32
			var st uint8
			for level := 0; level <= MaxLevel; level++ {
				pos := leaf >> uint(2*(MaxLevel-level))
				if dx, dy := c.Decode(level, pos); dx != x || dy != y {
					t.Fatalf("%s L%d pos %d: stepped to (%d,%d), Decode says (%d,%d)", c.Name(), level, pos, x, y, dx, dy)
				}
				if level == MaxLevel {
					break
				}
				id := FromPosLevel(pos, level)
				lo, hi := id.LeafPosRange()
				next := lo
				for k, ch := range id.Children() {
					clo, chi := ch.LeafPosRange()
					if clo != next || (k > 0 && ch <= id.Children()[k-1]) {
						t.Fatalf("%s %v: child %d %v not ascending and contiguous (starts %d, want %d)", c.Name(), id, k, ch, clo, next)
					}
					next = chi + 1
					dx, dy, _ := c.Step(st, k)
					if cx, cy := ch.XY(c); cx != x<<1|dx || cy != y<<1|dy {
						t.Fatalf("%s %v: Step child %d is (%d,%d), Children()[%d] is (%d,%d)", c.Name(), id, k, x<<1|dx, y<<1|dy, k, cx, cy)
					}
				}
				if next != hi+1 {
					t.Fatalf("%s %v: children end at %d, parent at %d", c.Name(), id, next-1, hi)
				}
				dx, dy, ns := c.Step(st, int(leaf>>uint(2*(MaxLevel-level-1))&3))
				x, y, st = x<<1|dx, y<<1|dy, ns
			}
		}
	}
}
