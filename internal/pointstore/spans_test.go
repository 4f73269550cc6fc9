package pointstore

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// spansFixture builds a weighted mutable store — every tenth point or so
// deleted when del is set — and a batch of random resolved spans over its
// base rows, including empty, block-aligned, sub-block and column-spanning
// shapes. The weights spread over 30 binary orders of magnitude, both signs,
// so a SUM's rounding depends on which rows it adds.
func spansFixture(t testing.TB, n, nSpans int, del bool) (*Snapshot, []int32, []int32) {
	rng := rand.New(rand.NewSource(21))
	d, err := sfc.NewDomain(geom.Pt(0, 0), 1024)
	if err != nil {
		t.Fatal(err)
	}
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = math.Ldexp(rng.Float64()-0.25, rng.Intn(30))
	}
	m, err := NewMutable(randPts(rng, n), ws, d, sfc.Hilbert{})
	if err != nil {
		t.Fatal(err)
	}
	if del {
		ids := make([]uint64, 0, n/10)
		for range n / 10 {
			ids = append(ids, uint64(rng.Intn(n)))
		}
		m.Delete(ids...)
	}
	s := m.Snapshot()
	base := int32(s.BaseLen())
	los := make([]int32, nSpans)
	his := make([]int32, nSpans)
	for r := range los {
		switch r % 5 {
		case 0: // empty
			los[r] = rng.Int31n(base + 1)
			his[r] = los[r]
		case 1: // sub-block
			los[r] = rng.Int31n(base)
			his[r] = min(los[r]+rng.Int31n(BlockSize), base)
		case 2: // block-aligned
			lo := (rng.Int31n(base) / BlockSize) * BlockSize
			los[r] = lo
			his[r] = min(lo+(1+rng.Int31n(8))*BlockSize, base)
		case 3: // wide
			los[r] = rng.Int31n(base / 2)
			his[r] = base/2 + rng.Int31n(base/2)
		default: // whole column
			los[r], his[r] = 0, base
		}
	}
	return s, los, his
}

// TestBatchedSpansMatchScalar pins the batched fold bit-identical to the
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
			s.FoldSpans(los, his, sum, mn, mx)
			for r := 0; r < n; r++ {
				i, j := int(los[r]), int(his[r])
				if want := int64(s.CountSpan(i, j)); cnt[r] != want {
					t.Fatalf("span %d [%d,%d): count %d, scalar %d", r, los[r], his[r], cnt[r], want)
				}
				if want := s.SumSpan(i, j); sum[r] != want {
					t.Fatalf("span %d [%d,%d): sum %v, scalar %v", r, los[r], his[r], sum[r], want)
				}
				if want := s.MinSpan(i, j); mn[r] != want {
					t.Fatalf("span %d [%d,%d): min %v, scalar %v", r, los[r], his[r], mn[r], want)
				}
				if want := s.MaxSpan(i, j); mx[r] != want {
					t.Fatalf("span %d [%d,%d): max %v, scalar %v", r, los[r], his[r], mx[r], want)
				}
			}
		})
	}
}

// TestFoldSpansMatchBrute checks the snapshot fold against a brute scan of
// each span's live rows, on clean and tombstoned snapshots: MIN and MAX
// exactly, SUM within 2·n·u·Σ|w| over the span's own n live rows — the
// worst-case rounding of two sums of the same terms, tight enough that
// rounding carried in from rows outside the span would break it.
func TestFoldSpansMatchBrute(t *testing.T) {
	for _, del := range []bool{false, true} {
		name := "clean"
		if del {
			name = "tombstoned"
		}
		t.Run(name, func(t *testing.T) {
			s, los, his := spansFixture(t, 30_000, 300, del)
			n := len(los)
			sum := make([]float64, n)
			mn := make([]float64, n)
			mx := make([]float64, n)
			s.FoldSpans(los, his, sum, mn, mx)
			for r := 0; r < n; r++ {
				live, wantSum, abs := 0, 0.0, 0.0
				wantMin, wantMax := math.Inf(1), math.Inf(-1)
				for i := int(los[r]); i < int(his[r]); i++ {
					if _, dead := slices.BinarySearch(s.tombPos, i); dead {
						continue
					}
					w := s.base.weights[i]
					live++
					wantSum += w
					abs += math.Abs(w)
					wantMin, wantMax = math.Min(wantMin, w), math.Max(wantMax, w)
				}
				if math.Abs(sum[r]-wantSum) > 2*float64(live)*0x1p-53*abs {
					t.Fatalf("span %d [%d,%d): sum %v, brute %v (Σ|w| %v over %d rows)", r, los[r], his[r], sum[r], wantSum, abs, live)
				}
				if mn[r] != wantMin {
					t.Fatalf("span %d: min %v, brute %v", r, mn[r], wantMin)
				}
				if mx[r] != wantMax {
					t.Fatalf("span %d: max %v, brute %v", r, mx[r], wantMax)
				}
			}
		})
	}
}

// BenchmarkSpanFolds is the scalar-vs-batched head-to-head over a tombstone-
// free snapshot: the per-range accessor cadence against the one-pass batched
// folds the cover plan pays.
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
				i, j := int(los[r]), int(his[r])
				cnt[r] = int64(s.CountSpan(i, j))
				sum[r] = s.SumSpan(i, j)
				mn[r] = s.MinSpan(i, j)
				mx[r] = s.MaxSpan(i, j)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.CountSpans(los, his, cnt)
			s.FoldSpans(los, his, sum, mn, mx)
		}
	})
}
