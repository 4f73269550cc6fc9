package pointstore

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

func testDomain(t *testing.T) sfc.Domain {
	t.Helper()
	d, err := sfc.NewDomain(geom.Pt(0, 0), 1024)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// naive holds the sorted columns for reference computations.
type naive struct {
	keys []uint64
	ws   []float64
}

// keySpan is the reference span of the inclusive key range [lo, hi] over a
// sorted key column: the first position holding a key ≥ lo and the first
// holding a key > hi, by binary search.
func keySpan(keys []uint64, lo, hi uint64) (i, j int) {
	return sort.Search(len(keys), func(k int) bool { return keys[k] >= lo }),
		sort.Search(len(keys), func(k int) bool { return keys[k] > hi })
}

func buildBoth(t *testing.T, n int, seed int64, withWeights bool) (*Snapshot, naive) {
	t.Helper()
	d := testDomain(t)
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	var ws []float64
	if withWeights {
		ws = make([]float64, n)
	}
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
		if withWeights {
			ws[i] = rng.NormFloat64() * 10
		}
	}
	m, err := NewMutable(pts, ws, d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: sort (key, weight) pairs independently.
	type kw struct {
		k uint64
		w float64
	}
	pairs := make([]kw, n)
	for i, p := range pts {
		pos, ok := d.LeafPos(sfc.Hilbert{}, p)
		if !ok {
			t.Fatalf("point %v unexpectedly outside domain", p)
		}
		pairs[i] = kw{pos, 1}
		if withWeights {
			pairs[i].w = ws[i]
		}
	}
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0 && pairs[j].k < pairs[j-1].k; j-- {
			pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
		}
	}
	nv := naive{keys: make([]uint64, n), ws: make([]float64, n)}
	for i, p := range pairs {
		nv.keys[i], nv.ws[i] = p.k, p.w
	}
	return m.Snapshot(), nv
}

func TestRangeAggregatesMatchNaive(t *testing.T) {
	const n = 3000
	s, nv := buildBoth(t, n, 7, true)
	if s.LiveLen() != n || !s.HasWeights() {
		t.Fatalf("store accounting wrong: len=%d", s.LiveLen())
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 500; trial++ {
		lo := nv.keys[rng.Intn(n)]
		hi := nv.keys[rng.Intn(n)]
		if trial%7 == 0 {
			// Exercise ranges whose endpoints are not stored keys too.
			lo, hi = lo-uint64(rng.Intn(3)), hi+uint64(rng.Intn(3))
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		var cnt int
		sum := 0.0
		mn, mx := math.Inf(1), math.Inf(-1)
		for i, k := range nv.keys {
			if k >= lo && k <= hi {
				cnt++
				sum += nv.ws[i]
				mn = math.Min(mn, nv.ws[i])
				mx = math.Max(mx, nv.ws[i])
			}
		}
		i, j := keySpan(s.BaseColumns().Keys, lo, hi)
		if got := s.CountSpan(i, j); got != cnt {
			t.Fatalf("range [%d,%d]: count %d != %d", lo, hi, got, cnt)
		}
		if j-i != cnt {
			t.Fatalf("range [%d,%d]: span width %d != %d", lo, hi, j-i, cnt)
		}
		if got := s.SumSpan(i, j); math.Abs(got-sum) > 1e-9*math.Max(1, math.Abs(sum)) {
			t.Fatalf("range [%d,%d]: sum %g != %g", lo, hi, got, sum)
		}
		if got := s.MinSpan(i, j); got != mn {
			t.Fatalf("range [%d,%d]: min %g != %g", lo, hi, got, mn)
		}
		if got := s.MaxSpan(i, j); got != mx {
			t.Fatalf("range [%d,%d]: max %g != %g", lo, hi, got, mx)
		}
	}
}

// TestSpanBlockEdges pins the block-folding arithmetic of MinSpan/MaxSpan to
// spans that start/end exactly on block boundaries, span one partial block,
// and cover everything.
func TestSpanBlockEdges(t *testing.T) {
	const n = 3*BlockSize + 37
	s, nv := buildBoth(t, n, 9, true)
	spans := [][2]int{
		{0, n}, {0, BlockSize}, {BlockSize, 2 * BlockSize},
		{BlockSize - 1, BlockSize + 1}, {5, 9}, {2 * BlockSize, n},
		{BlockSize / 2, 2*BlockSize + BlockSize/2}, {n - 1, n}, {10, 10},
	}
	for _, sp := range spans {
		i, j := sp[0], sp[1]
		mn, mx := math.Inf(1), math.Inf(-1)
		sum := 0.0
		for k := i; k < j; k++ {
			mn = math.Min(mn, nv.ws[k])
			mx = math.Max(mx, nv.ws[k])
			sum += nv.ws[k]
		}
		if got := s.MinSpan(i, j); got != mn {
			t.Errorf("span [%d,%d): min %g != %g", i, j, got, mn)
		}
		if got := s.MaxSpan(i, j); got != mx {
			t.Errorf("span [%d,%d): max %g != %g", i, j, got, mx)
		}
		if got := s.SumSpan(i, j); math.Abs(got-sum) > 1e-9*math.Max(1, math.Abs(sum)) {
			t.Errorf("span [%d,%d): sum %g != %g", i, j, got, sum)
		}
	}
}

func TestOutOfDomainPointsDropped(t *testing.T) {
	d := testDomain(t)
	pts := []geom.Point{
		geom.Pt(10, 10), geom.Pt(-5, 10), geom.Pt(2000, 500), geom.Pt(500, 500),
	}
	ws := []float64{1, 2, 3, 4}
	m, err := NewMutable(pts, ws, d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 2 || m.Dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 2/2", m.Len(), m.Dropped())
	}
	// The surviving weights are 1 and 4.
	if got := m.Snapshot().SumSpan(0, m.Len()); got != 5 {
		t.Errorf("sum over survivors = %g, want 5", got)
	}
}

func TestWeightValidationAndEmpty(t *testing.T) {
	d := testDomain(t)
	if _, err := NewMutable([]geom.Point{geom.Pt(1, 1)}, []float64{1, 2}, d, sfc.Hilbert{}); err == nil {
		t.Error("mismatched weight column accepted")
	}
	// Non-finite weights would make every aggregate that reads them
	// non-finite; construction must reject them.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewMutable([]geom.Point{geom.Pt(1, 1)}, []float64{bad}, d, sfc.Hilbert{}); err == nil {
			t.Errorf("non-finite weight %v accepted", bad)
		}
	}
	m, err := NewMutable(nil, nil, d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	if i, j := keySpan(s.BaseColumns().Keys, 0, math.MaxUint64); s.LiveLen() != 0 || s.HasWeights() || s.CountSpan(i, j) != 0 {
		t.Error("empty store misbehaves")
	}
	if s.MemoryBytes() != 0 {
		t.Errorf("empty store footprint %d, want 0", s.MemoryBytes())
	}
}

func TestNoWeightsStore(t *testing.T) {
	s, nv := buildBoth(t, 500, 11, false)
	if s.HasWeights() {
		t.Fatal("weightless store claims weights")
	}
	if i, j := keySpan(s.BaseColumns().Keys, nv.keys[0], nv.keys[len(nv.keys)-1]); s.CountSpan(i, j) != 500 {
		t.Errorf("full-range count %d != 500", s.CountSpan(i, j))
	}
	// Keys (8 B), coordinates (16 B) and IDs (8 B) a row; no weight columns.
	if got := s.MemoryBytes(); got != 32*500 {
		t.Errorf("footprint %d B, want %d", got, 32*500)
	}
}

// TestSpanMultiMatchesLowerBound pins the batch resolver against a per-key
// binary search: for any ascending probe list — duplicates, out-of-range keys
// and boundary hits included — SpanMulti must return exactly the lower bound
// per probe.
func TestSpanMultiMatchesLowerBound(t *testing.T) {
	s, nv := buildBoth(t, 4000, 17, true)
	rng := rand.New(rand.NewSource(18))
	probes := make([]uint64, 0, 4096)
	// Stress the sweep's regimes: dense duplicates, exact column keys,
	// key±1 boundary probes, and far jumps.
	for i := 0; i < 1500; i++ {
		k := nv.keys[rng.Intn(len(nv.keys))]
		probes = append(probes, k, k, k+1)
	}
	for i := 0; i < 500; i++ {
		probes = append(probes, rng.Uint64())
	}
	probes = append(probes, 0, 0, math.MaxUint64)
	sort.Slice(probes, func(a, b int) bool { return probes[a] < probes[b] })
	out := make([]int, len(probes))
	s.SpanMulti(probes, out)
	for i, k := range probes {
		if want, _ := keySpan(nv.keys, k, k); out[i] != want {
			t.Fatalf("probe %d (key %d): SpanMulti %d != lower bound %d", i, k, out[i], want)
		}
	}
	// An empty store resolves everything to 0.
	empty, err := NewMutable(nil, nil, testDomain(t), sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	out2 := make([]int, 3)
	empty.Snapshot().SpanMulti([]uint64{0, 5, math.MaxUint64}, out2)
	for i, got := range out2 {
		if got != 0 {
			t.Fatalf("empty store probe %d resolved to %d", i, got)
		}
	}
}

// TestSpanMultiSpansMatchSpan verifies range semantics end to end: spans
// assembled from batch-resolved boundaries (Lo and Hi+1 probes) must equal a
// binary search's (first key ≥ lo, first key > hi) pair for every range, on
// the mutable snapshot the joiner actually probes.
func TestSpanMultiSpansMatchSpan(t *testing.T) {
	d := testDomain(t)
	rng := rand.New(rand.NewSource(19))
	pts := make([]geom.Point, 3000)
	ws := make([]float64, len(pts))
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
		ws[i] = float64(rng.Intn(100))
	}
	m, err := NewMutable(pts, ws, d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	m.Delete(1, 2, 3, 500) // tombstones must not shift resolved rows
	snap := m.Snapshot()
	type rng2 struct{ lo, hi uint64 }
	var ranges []rng2
	for i := 0; i < 300; i++ {
		a, b := rng.Uint64()%(1<<40), rng.Uint64()%(1<<40)
		if a > b {
			a, b = b, a
		}
		ranges = append(ranges, rng2{a, b})
	}
	probes := make([]uint64, 0, 2*len(ranges))
	for _, r := range ranges {
		probes = append(probes, r.lo, r.hi+1)
	}
	sort.Slice(probes, func(a, b int) bool { return probes[a] < probes[b] })
	out := make([]int, len(probes))
	snap.SpanMulti(probes, out)
	find := func(k uint64) int {
		i := sort.Search(len(probes), func(j int) bool { return probes[j] >= k })
		return out[i]
	}
	keys := snap.BaseColumns().Keys
	for _, r := range ranges {
		wantI, wantJ := keySpan(keys, r.lo, r.hi)
		if gotI, gotJ := find(r.lo), find(r.hi+1); gotI != wantI || gotJ != wantJ {
			t.Fatalf("range [%d,%d]: batch span (%d,%d) != search (%d,%d)", r.lo, r.hi, gotI, gotJ, wantI, wantJ)
		}
	}
}
