package pointstore

import (
	"math"
	"math/rand"
	"testing"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// spansFixture builds a weighted mutable store and a batch of random resolved
// spans over its base rows, including empty, block-aligned, sub-block and
// column-spanning shapes.
func spansFixture(t testing.TB, n, nSpans int, del bool) (*Snapshot, []int, []int) {
	rng := rand.New(rand.NewSource(21))
	d, err := sfc.NewDomain(geom.Pt(0, 0), 1024)
	if err != nil {
		t.Fatal(err)
	}
	m := dirtySnapshot(t, rng, d, n, 0, true, del)
	s := m.Snapshot()
	base := s.BaseLen()
	los := make([]int, nSpans)
	his := make([]int, nSpans)
	for r := range los {
		switch r % 5 {
		case 0: // empty
			los[r] = rng.Intn(base + 1)
			his[r] = los[r]
		case 1: // sub-block
			los[r] = rng.Intn(base)
			his[r] = min(los[r]+rng.Intn(BlockSize), base)
		case 2: // block-aligned
			lo := (rng.Intn(base) / BlockSize) * BlockSize
			los[r] = lo
			his[r] = min(lo+(1+rng.Intn(8))*BlockSize, base)
		case 3: // wide
			los[r] = rng.Intn(base / 2)
			his[r] = base/2 + rng.Intn(base/2)
		default: // whole column
			los[r], his[r] = 0, base
		}
	}
	return s, los, his
}

// TestBatchedSpansMatchScalar pins the batched folds bit-identical to the
// scalar per-span accessors, with and without tombstones.
func TestBatchedSpansMatchScalar(t *testing.T) {
	for _, del := range []bool{false, true} {
		name := "clean"
		if del {
			name = "tombstoned"
		}
		t.Run(name, func(t *testing.T) {
			s, los, his := spansFixture(t, 40_000, 400, del)
			n := len(los)
			cnt := make([]int64, n)
			sum := make([]float64, n)
			mn := make([]float64, n)
			mx := make([]float64, n)
			s.CountSpans(los, his, cnt)
			s.SumSpans(los, his, sum)
			s.MinSpans(los, his, mn)
			s.MaxSpans(los, his, mx)
			for r := 0; r < n; r++ {
				if want := int64(s.CountSpan(los[r], his[r])); cnt[r] != want {
					t.Fatalf("span %d [%d,%d): count %d, scalar %d", r, los[r], his[r], cnt[r], want)
				}
				if want := s.SumSpan(los[r], his[r]); sum[r] != want {
					t.Fatalf("span %d [%d,%d): sum %v, scalar %v", r, los[r], his[r], sum[r], want)
				}
				if want := s.MinSpan(los[r], his[r]); mn[r] != want {
					t.Fatalf("span %d [%d,%d): min %v, scalar %v", r, los[r], his[r], mn[r], want)
				}
				if want := s.MaxSpan(los[r], his[r]); mx[r] != want {
					t.Fatalf("span %d [%d,%d): max %v, scalar %v", r, los[r], his[r], mx[r], want)
				}
			}
		})
	}
}

// TestStoreBatchedSpansMatchScalar exercises the Store-level folds directly
// (the tombstone-free fast path the snapshot wrappers dispatch to) against a
// brute scan of the weight column. SUM is compared to a tolerance: the
// prefix difference and a left-to-right sum associate differently.
func TestStoreBatchedSpansMatchScalar(t *testing.T) {
	s, los, his := spansFixture(t, 30_000, 300, false)
	st := s.base
	n := len(los)
	sum := make([]float64, n)
	mn := make([]float64, n)
	mx := make([]float64, n)
	st.SumSpans(los, his, sum)
	st.MinSpans(los, his, mn)
	st.MaxSpans(los, his, mx)
	for r := 0; r < n; r++ {
		wantSum, wantMin, wantMax := 0.0, math.Inf(1), math.Inf(-1)
		for _, w := range st.weights[los[r]:his[r]] {
			wantSum += w
			wantMin, wantMax = math.Min(wantMin, w), math.Max(wantMax, w)
		}
		if math.Abs(sum[r]-wantSum) > 1e-9*math.Max(1, st.prefix[len(st.prefix)-1]) {
			t.Fatalf("span %d: sum %v, brute %v", r, sum[r], wantSum)
		}
		if mn[r] != wantMin {
			t.Fatalf("span %d: min %v, brute %v", r, mn[r], wantMin)
		}
		if mx[r] != wantMax {
			t.Fatalf("span %d: max %v, brute %v", r, mx[r], wantMax)
		}
	}
}

// BenchmarkSpanFolds is the scalar-vs-batched head-to-head over a tombstone-
// free snapshot: the per-range accessor cadence the cover plan used to pay
// against the one-pass batched folds it pays now.
func BenchmarkSpanFolds(b *testing.B) {
	s, los, his := spansFixture(b, 200_000, 1024, false)
	n := len(los)
	cnt := make([]int64, n)
	sum := make([]float64, n)
	mn := make([]float64, n)
	mx := make([]float64, n)
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r := 0; r < n; r++ {
				cnt[r] = int64(s.CountSpan(los[r], his[r]))
				sum[r] = s.SumSpan(los[r], his[r])
				mn[r] = s.MinSpan(los[r], his[r])
				mx[r] = s.MaxSpan(los[r], his[r])
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.CountSpans(los, his, cnt)
			s.SumSpans(los, his, sum)
			s.MinSpans(los, his, mn)
			s.MaxSpans(los, his, mx)
		}
	})
}
