package join

// Parallel evaluation (§2.3 "Execution"): because every point lookup — and
// every canvas pixel — is independent, and COUNT/SUM/AVG are distributive or
// algebraic, the aggregation join decomposes into shard-local partial
// aggregates that merge exactly. The parallel forms return bit-identical
// counts and float-sum results that differ from the sequential ones only by
// re-association of additions. The fan-out itself lives in the
// multi-aggregate fold in multi.go (AggregateMulti takes the worker count).

// shardBounds splits n items into k contiguous shards.
func shardBounds(n, k int) [][2]int {
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([][2]int, 0, k)
	for s := 0; s < k; s++ {
		lo := n * s / k
		hi := n * (s + 1) / k
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}
