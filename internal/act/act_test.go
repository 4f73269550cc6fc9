package act

import (
	"math"
	"math/rand"
	"testing"

	"distbound/internal/geom"
	"distbound/internal/raster"
	"distbound/internal/sfc"
)

// newTrie returns an empty trie of the given stride.
func newTrie(t testing.TB, stride int) *Trie {
	t.Helper()
	tr, err := New(stride)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidatesStride(t *testing.T) {
	for _, s := range []int{1, 2, 3, 5, 6} {
		if _, err := New(s); err != nil {
			t.Errorf("stride %d rejected: %v", s, err)
		}
	}
	if _, err := New(4); err == nil {
		t.Error("stride 4 (not dividing 30) accepted")
	}
	if tr, err := New(0); err != nil || tr == nil {
		t.Error("default stride failed")
	}
}

func TestInsertAlignedCellLookup(t *testing.T) {
	tr := newTrie(t, 3)
	// A cell at level 3 (aligned to stride 3).
	id := sfc.FromPosLevel(0b101010, 3)
	tr.Insert(id, 7)
	ct := tr.Compact()
	lo, hi := id.LeafPosRange()
	for _, pos := range []uint64{lo, hi, (lo + hi) / 2} {
		if got := ct.LookupFirst(pos); got != 7 {
			t.Errorf("LookupFirst(inside) = %d, want 7", got)
		}
	}
	if got := ct.LookupFirst(hi + 1); got != -1 {
		t.Errorf("LookupFirst(outside) = %d, want -1", got)
	}
	if lo > 0 {
		if got := ct.LookupFirst(lo - 1); got != -1 {
			t.Errorf("LookupFirst(below) = %d, want -1", got)
		}
	}
}

func TestInsertUnalignedCellLookup(t *testing.T) {
	// Levels 1..6 cover aligned and unaligned cases for stride 3.
	for level := 1; level <= 6; level++ {
		tr := newTrie(t, 3)
		id := sfc.FromPosLevel(uint64(level), level) // arbitrary pos
		tr.Insert(id, int32(level))
		ct := tr.Compact()
		lo, hi := id.LeafPosRange()
		for _, pos := range []uint64{lo, hi, (lo + hi) / 2} {
			if got := ct.LookupFirst(pos); got != int32(level) {
				t.Errorf("level %d: LookupFirst(inside) = %d", level, got)
			}
		}
		if hi+1 != 0 {
			if got := ct.LookupFirst(hi + 1); got != -1 {
				t.Errorf("level %d: LookupFirst(outside) = %d", level, got)
			}
		}
	}
}

func TestRootLevelCell(t *testing.T) {
	tr := newTrie(t, 3)
	tr.Insert(sfc.FromPosLevel(0, 0), 42) // the whole domain
	if got := tr.Compact().LookupFirst(12345678); got != 42 {
		t.Errorf("root cell lookup = %d", got)
	}
}

func TestLeafLevelCell(t *testing.T) {
	tr := newTrie(t, 3)
	pos := uint64(987654321)
	tr.Insert(sfc.FromPosLevel(pos, sfc.MaxLevel), 5)
	ct := tr.Compact()
	if got := ct.LookupFirst(pos); got != 5 {
		t.Errorf("leaf cell lookup = %d", got)
	}
	if got := ct.LookupFirst(pos + 1); got != -1 {
		t.Errorf("adjacent leaf = %d", got)
	}
}

func TestMultipleValuesSameCell(t *testing.T) {
	tr := newTrie(t, 3)
	id := sfc.FromPosLevel(9, 4)
	tr.Insert(id, 1)
	tr.Insert(id, 2)
	lo, _ := id.LeafPosRange()
	if vals := tr.Compact().LookupAppend(lo, nil); len(vals) != 2 {
		t.Fatalf("LookupAppend = %v", vals)
	}
}

func TestNestedCellsReportedCoarsestFirst(t *testing.T) {
	tr := newTrie(t, 3)
	outer := sfc.FromPosLevel(1, 2)
	inner := outer.Children()[2].Children()[1] // level 4
	tr.Insert(outer, 10)
	tr.Insert(inner, 20)
	ct := tr.Compact()
	lo, _ := inner.LeafPosRange()
	if order := ct.LookupAppend(lo, nil); len(order) != 2 || order[0] != 10 || order[1] != 20 {
		t.Errorf("lookup order = %v, want [10 20] (coarsest first)", order)
	}
	if got := ct.LookupFirst(lo); got != 10 {
		t.Errorf("LookupFirst = %d, want the coarser cell", got)
	}
}

func TestAgainstRasterApproximationOracle(t *testing.T) {
	d, err := sfc.NewDomain(geom.Pt(0, 0), 1024)
	if err != nil {
		t.Fatal(err)
	}
	curve := sfc.Hilbert{}
	rng := rand.New(rand.NewSource(1))
	for _, stride := range []int{2, 3, 5} {
		tr := newTrie(t, stride)
		var approxes []*raster.Approximation
		for pid := 0; pid < 5; pid++ {
			ring := make(geom.Ring, 12)
			cx, cy := 200+rng.Float64()*600, 200+rng.Float64()*600
			for i := range ring {
				ang := 2 * math.Pi * float64(i) / float64(len(ring))
				r := 50 + rng.Float64()*120
				ring[i] = geom.Pt(cx+r*math.Cos(ang), cy+r*math.Sin(ang))
			}
			p := geom.MustPolygon(ring)
			a, err := raster.Hierarchical(p, d, curve, 8, raster.Conservative)
			if err != nil {
				t.Fatal(err)
			}
			tr.InsertCells(a.Interior, int32(pid))
			tr.InsertCells(a.Boundary, int32(pid))
			approxes = append(approxes, a)
		}
		ct := tr.Compact()
		var buf []int32
		for i := 0; i < 3000; i++ {
			pt := geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
			pos, _ := d.LeafPos(curve, pt)
			got := map[int32]bool{}
			buf = ct.LookupAppend(pos, buf[:0])
			for _, v := range buf {
				got[v] = true
			}
			for pid, a := range approxes {
				if want := a.CoversLeafPos(pos); want != got[int32(pid)] {
					t.Fatalf("stride %d: polygon %d at %v: trie=%v approx=%v",
						stride, pid, pt, got[int32(pid)], want)
				}
			}
		}
	}
}

func TestAccounting(t *testing.T) {
	tr := newTrie(t, 3)
	empty := tr.Compact().MemoryBytes()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		level := 3 + rng.Intn(10)
		pos := rng.Uint64() & (1<<(2*uint(level)) - 1)
		tr.Insert(sfc.FromPosLevel(pos, level), int32(i))
	}
	ct := tr.Compact()
	if ct.MemoryBytes() <= empty {
		t.Errorf("MemoryBytes = %d, not above the empty trie's %d", ct.MemoryBytes(), empty)
	}
}
