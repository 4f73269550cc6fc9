//go:build !race

package join

import "testing"

// TestBRJJoinerRunRetainsItsCanvases is BenchmarkBRJJoinerRun/e64's guard in
// a form any host can hold: a warm run allocates its result columns — under a
// megabyte — where point buffers allocated per call were 2.7 MB, and a
// tile-sized pair of point canvases 35 MB. (Not under -race, whose allocator
// accounting differs.)
func TestBRJJoinerRunRetainsItsCanvases(t *testing.T) {
	r := testing.Benchmark(func(b *testing.B) { benchBRJJoinerRun(b, 1) })
	if got := r.AllocedBytesPerOp(); got >= 1<<20 {
		t.Errorf("warm {count,sum}@ε64 run allocates %d B/op, want < 1 MiB", got)
	}
}

// TestRStarJoinerAllocatesPerCallOnly is BenchmarkRStarJoiner's guard: a run
// allocates its shard scaffold and its result columns — 12 allocations, about
// 6.7 KB over 256 regions — and nothing per point or per candidate.
func TestRStarJoinerAllocatesPerCallOnly(t *testing.T) {
	r := testing.Benchmark(benchRStarJoiner)
	if allocs, bytes := r.AllocsPerOp(), r.AllocedBytesPerOp(); allocs > 12 || bytes > 8<<10 {
		t.Errorf("{count} over 50 k points allocates %d times, %d B/op; want ≤ 12 and ≤ 8 KiB", allocs, bytes)
	}
}
