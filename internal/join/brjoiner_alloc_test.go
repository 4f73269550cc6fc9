//go:build !race

package join

import "testing"

// TestBRJJoinerRunRetainsItsCanvases is BenchmarkBRJJoinerRun/e64's guard in
// a form any host can hold: a warm run allocates its buckets and results —
// under a megabyte — where a tile-sized pair of point canvases per call was
// 35 MB. (Not under -race, whose allocator accounting differs.)
func TestBRJJoinerRunRetainsItsCanvases(t *testing.T) {
	r := testing.Benchmark(func(b *testing.B) { benchBRJJoinerRun(b, 1) })
	if got := r.AllocedBytesPerOp(); got >= 1<<20 {
		t.Errorf("warm {count,sum}@ε64 run allocates %d B/op, want < 1 MiB", got)
	}
}
