package act

import (
	"math/rand"
	"slices"
	"testing"

	"distbound/internal/sfc"
)

// TestCompactTrieMatchesCellOracle holds the frozen trie to the cells it was
// built from, with no second trie as the reference: LookupAppend returns, as
// a multiset, the payload of every inserted cell whose leaf range holds the
// probe, and LookupFirst is -1 exactly when no cell covers the probe and
// otherwise the payload of a covering cell at the shallowest trie depth
// ⌊level/stride⌋. Cells come at every level, so strides 2, 3 and 5 store
// them both as node terminals and as slot-range entries; stride 1 stores
// terminals only.
func TestCompactTrieMatchesCellOracle(t *testing.T) {
	const nCells, nProbes = 1500, 4000
	for _, stride := range []int{1, 2, 3, 5} {
		rng := rand.New(rand.NewSource(int64(stride)))
		tr := newTrie(t, stride)
		cells := make([]sfc.CellID, nCells)
		for i := range cells {
			level := rng.Intn(sfc.MaxLevel + 1)
			pos := rng.Uint64() & (uint64(1)<<(2*uint(level)) - 1)
			cells[i] = sfc.FromPosLevel(pos, level)
			tr.Insert(cells[i], int32(i))
		}
		ct := tr.Compact()
		if ct.NumCells() != nCells {
			t.Fatalf("stride %d: NumCells = %d, want %d", stride, ct.NumCells(), nCells)
		}
		var got, want []int32
		for i := 0; i < nProbes; i++ {
			var pos uint64
			if i%2 == 0 {
				pos = rng.Uint64() & (uint64(1)<<(2*sfc.MaxLevel) - 1)
			} else {
				// Probe inside a known cell to guarantee hits.
				lo, hi := cells[rng.Intn(len(cells))].LeafPosRange()
				pos = lo + rng.Uint64()%(hi-lo+1)
			}
			want = want[:0]
			first, firstDepth := int32(-1), sfc.MaxLevel+1
			for ci, id := range cells {
				if lo, hi := id.LeafPosRange(); lo <= pos && pos <= hi {
					want = append(want, int32(ci))
					if d := id.Level() / stride; d < firstDepth {
						first, firstDepth = int32(ci), d
					}
				}
			}
			got = ct.LookupAppend(pos, got[:0])
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("stride %d pos %d: LookupAppend = %v, want %v", stride, pos, got, want)
			}
			f := ct.LookupFirst(pos)
			switch {
			case first < 0:
				if f != -1 {
					t.Fatalf("stride %d pos %d: LookupFirst = %d on an uncovered probe", stride, pos, f)
				}
			case f < 0 || int(f) >= nCells:
				t.Fatalf("stride %d pos %d: LookupFirst = %d, want a payload at depth %d", stride, pos, f, firstDepth)
			default:
				lo, hi := cells[f].LeafPosRange()
				if pos < lo || pos > hi || cells[f].Level()/stride != firstDepth {
					t.Fatalf("stride %d pos %d: LookupFirst = %d (cell %v), want a covering cell at depth %d",
						stride, pos, f, cells[f], firstDepth)
				}
			}
		}
	}
}

func TestCompactEmpty(t *testing.T) {
	ct := newTrie(t, 3).Compact()
	if got := ct.LookupFirst(12345); got != -1 {
		t.Errorf("empty compact trie returned %d", got)
	}
	if ct.LookupAppend(0, nil) != nil {
		t.Error("empty compact trie appended values")
	}
	if ct.MemoryBytes() <= 0 {
		t.Error("MemoryBytes must be positive")
	}
}

func BenchmarkTrieLookup(b *testing.B) {
	tr := newTrie(b, 3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500000; i++ {
		level := 10 + rng.Intn(6)
		pos := rng.Uint64() & (uint64(1)<<(2*uint(level)) - 1)
		tr.Insert(sfc.FromPosLevel(pos, level), int32(i))
	}
	ct := tr.Compact()
	probes := make([]uint64, 4096)
	for i := range probes {
		probes[i] = rng.Uint64() & (uint64(1)<<(2*sfc.MaxLevel) - 1)
	}
	b.ResetTimer()
	var buf []int32
	for i := 0; i < b.N; i++ {
		buf = ct.LookupAppend(probes[i%len(probes)], buf[:0])
	}
}
