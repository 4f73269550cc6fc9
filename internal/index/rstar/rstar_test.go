package rstar

import (
	"math"
	"math/rand"
	"testing"

	"distbound/internal/geom"
)

func randomItems(rng *rand.Rand, n int, extent, maxSize float64) []Item {
	items := make([]Item, n)
	for i := range items {
		lo := geom.Pt(rng.Float64()*extent, rng.Float64()*extent)
		items[i] = Item{
			Rect: geom.Rect{Min: lo, Max: geom.Pt(lo.X+rng.Float64()*maxSize, lo.Y+rng.Float64()*maxSize)},
			ID:   int32(i),
		}
	}
	return items
}

func bruteIntersect(items []Item, q geom.Rect) map[int32]bool {
	out := map[int32]bool{}
	for _, it := range items {
		if it.Rect.Intersects(q) {
			out[it.ID] = true
		}
	}
	return out
}

func checkInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	var walk func(n *node, depth int) int
	count := 0
	walk = func(n *node, depth int) int {
		if n.leaf {
			count += len(n.items)
			b := geom.EmptyRect()
			for _, it := range n.items {
				b = b.Union(it.Rect)
			}
			if len(n.items) > 0 && b != n.bounds {
				t.Fatalf("leaf bounds stale: %v vs %v", n.bounds, b)
			}
			return depth
		}
		if len(n.children) == 0 {
			t.Fatal("internal node with no children")
		}
		b := geom.EmptyRect()
		d := -1
		for _, c := range n.children {
			b = b.Union(c.bounds)
			cd := walk(c, depth+1)
			if d == -1 {
				d = cd
			} else if d != cd {
				t.Fatal("leaves at different depths")
			}
		}
		if b != n.bounds {
			t.Fatalf("internal bounds stale: %v vs %v", n.bounds, b)
		}
		return d
	}
	walk(tr.root, 1)
}

func TestBulkLoadMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := randomItems(rng, 20000, 1000, 10)
	tr := BulkLoad(items, 16)
	checkInvariants(t, tr)
	checkSearchRect(t, rng, tr, items, 60)
}

// TestDefaultFanoutMatchesBruteForce: BulkLoad with maxEntries 0 packs at
// DefaultMaxEntries and still finds exactly the intersecting IDs.
func TestDefaultFanoutMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	items := randomItems(rng, 10000, 1000, 20)
	tr := BulkLoad(items, 0)
	checkInvariants(t, tr)
	checkSearchRect(t, rng, tr, items, 100)
}

// checkSearchRect runs 100 random query rects of side up to maxSide and
// checks SearchRect returns exactly the IDs a linear scan finds.
func checkSearchRect(t *testing.T, rng *rand.Rand, tr *Tree, items []Item, maxSide float64) {
	t.Helper()
	for trial := 0; trial < 100; trial++ {
		lo := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		q := geom.Rect{Min: lo, Max: geom.Pt(lo.X+rng.Float64()*maxSide, lo.Y+rng.Float64()*maxSide)}
		want := bruteIntersect(items, q)
		got := map[int32]bool{}
		tr.SearchRect(q, func(it Item) bool { got[it.ID] = true; return true })
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d hits, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing id %d", trial, id)
			}
		}
	}
}

func TestSearchPoint(t *testing.T) {
	tr := BulkLoad([]Item{
		{Rect: geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)}, ID: 1},
		{Rect: geom.Rect{Min: geom.Pt(5, 5), Max: geom.Pt(15, 15)}, ID: 2},
	}, 8)
	var got []int32
	tr.SearchPoint(geom.Pt(7, 7), func(it Item) bool { got = append(got, it.ID); return true })
	if len(got) != 2 {
		t.Errorf("SearchPoint = %v", got)
	}
	got = got[:0]
	tr.SearchPoint(geom.Pt(12, 12), func(it Item) bool { got = append(got, it.ID); return true })
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("SearchPoint(12,12) = %v", got)
	}
}

// TestSearchPointSmallFanout: at fanout 4, a point under two overlapping
// items finds both and skips the disjoint third.
func TestSearchPointSmallFanout(t *testing.T) {
	tr := BulkLoad([]Item{
		{Rect: geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)}, ID: 1},
		{Rect: geom.Rect{Min: geom.Pt(5, 5), Max: geom.Pt(15, 15)}, ID: 2},
		{Rect: geom.Rect{Min: geom.Pt(20, 20), Max: geom.Pt(30, 30)}, ID: 3},
	}, 4)
	var got []int32
	tr.SearchPoint(geom.Pt(7, 7), func(it Item) bool { got = append(got, it.ID); return true })
	if len(got) != 2 {
		t.Fatalf("SearchPoint hits = %v", got)
	}
}

// TestSearchPointMatchesSearchRect: the point probe visits exactly the items
// the rect search visits for {p, p}, in the same order, and stops where it
// stops — at two fanouts, with zero-width and zero-area items, on the empty
// tree, at item corners, edge midpoints and centres, and at NaN.
func TestSearchPointMatchesSearchRect(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	items := make([]Item, 3000)
	for i := range items {
		// A coarse lattice, so corners and edges are shared between items.
		lo := geom.Pt(float64(rng.Intn(60)), float64(rng.Intn(60)))
		w, h := float64(rng.Intn(6)), float64(rng.Intn(6))
		switch i % 5 {
		case 0:
			w = 0
		case 1:
			w, h = 0, 0
		}
		items[i] = Item{Rect: geom.Rect{Min: lo, Max: geom.Pt(lo.X+w, lo.Y+h)}, ID: int32(i)}
	}
	trees := map[string]*Tree{
		"bulk16": BulkLoad(items, 16),
		"bulk4":  BulkLoad(items, 4),
		"empty":  BulkLoad(nil, 0),
	}
	nan := math.NaN()
	probes := []geom.Point{{X: nan, Y: nan}, {X: nan, Y: 3}, {X: 3, Y: nan}, {X: -1, Y: -1}}
	for _, it := range items[:400] {
		r := it.Rect
		for _, p := range r.Corners() {
			probes = append(probes, p)
		}
		for _, e := range r.Edges() {
			probes = append(probes, e.Midpoint())
		}
		probes = append(probes, r.Center())
	}
	for name, tr := range trees {
		for _, p := range probes {
			for _, stopAt := range []int{0, 1, 3} { // 0: never stop early
				collect := func(search func(func(Item) bool)) []Item {
					var got []Item
					search(func(it Item) bool {
						got = append(got, it)
						return len(got) != stopAt
					})
					return got
				}
				want := collect(func(fn func(Item) bool) { tr.SearchRect(geom.Rect{Min: p, Max: p}, fn) })
				got := collect(func(fn func(Item) bool) { tr.SearchPoint(p, fn) })
				if len(got) != len(want) {
					t.Fatalf("%s at %v (stop at %d): %d items, rect search %d", name, p, stopAt, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s at %v: item %d is %v, rect search %v", name, p, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestDegeneratePointItems(t *testing.T) {
	// Index points as degenerate rects, as Figure 4's baselines do.
	rng := rand.New(rand.NewSource(4))
	items := make([]Item, 10000)
	for i := range items {
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		items[i] = Item{Rect: geom.Rect{Min: p, Max: p}, ID: int32(i)}
	}
	tr := BulkLoad(items, 16)
	q := geom.Rect{Min: geom.Pt(10, 10), Max: geom.Pt(20, 20)}
	want := bruteIntersect(items, q)
	if got := tr.CountRect(q); got != len(want) {
		t.Errorf("point-item count = %d, want %d", got, len(want))
	}
}

func TestIdenticalRects(t *testing.T) {
	r := geom.Rect{Min: geom.Pt(1, 1), Max: geom.Pt(2, 2)}
	items := make([]Item, 500)
	for i := range items {
		items[i] = Item{Rect: r, ID: int32(i)}
	}
	tr := BulkLoad(items, 8)
	checkInvariants(t, tr)
	if got := tr.CountRect(r); got != 500 {
		t.Errorf("identical rect count = %d", got)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := BulkLoad(nil, 0)
	if tr.Height() != 1 {
		t.Error("empty tree wrong")
	}
	if n := tr.CountRect(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}); n != 0 {
		t.Errorf("empty search returned %d items", n)
	}
	if tr.MemoryBytes() <= 0 {
		t.Error("MemoryBytes must be positive")
	}
}

func TestSingleItem(t *testing.T) {
	tr := BulkLoad([]Item{{Rect: geom.Rect{Min: geom.Pt(1, 1), Max: geom.Pt(2, 2)}, ID: 7}}, 8)
	if tr.Height() != 1 {
		t.Errorf("single item: Height %d", tr.Height())
	}
	var got []int32
	tr.SearchPoint(geom.Pt(1.5, 1.5), func(it Item) bool { got = append(got, it.ID); return true })
	if len(got) != 1 || got[0] != 7 {
		t.Errorf("single item search = %v", got)
	}
}

func TestEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := BulkLoad(randomItems(rng, 1000, 100, 5), 8)
	n := 0
	tr.SearchRect(tr.Bounds(), func(Item) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("visited %d", n)
	}
}

// TestPackedHeight: STR packs every level full, so 4096 items at fanout 16
// are 256 leaves under 16 nodes under the root.
func TestPackedHeight(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	items := randomItems(rng, 4096, 1000, 5)
	tr := BulkLoad(items, 16)
	if tr.Height() != 3 {
		t.Errorf("height = %d, want 3", tr.Height())
	}
	for _, it := range items {
		if !tr.Bounds().ContainsRect(it.Rect) {
			t.Fatalf("root bounds %v do not cover item %v", tr.Bounds(), it.Rect)
		}
	}
}

// TestHeightGrowth: a packed tree of n items at fanout f is at most
// ⌈log_f n⌉ + 1 levels high.
func TestHeightGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 15, 16, 17, 256, 257, 1000, 5000} {
		tr := BulkLoad(randomItems(rng, n, 100, 2), 16)
		checkInvariants(t, tr)
		limit := int(math.Ceil(math.Log(float64(n))/math.Log(16))) + 1
		if tr.Height() > limit {
			t.Errorf("n=%d: height %d > ⌈log16 n⌉ + 1 = %d", n, tr.Height(), limit)
		}
	}
}
