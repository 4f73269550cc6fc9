package shard

import (
	"context"
	"testing"

	"distbound"
	"distbound/internal/data"
)

// BenchmarkIngestRead is the mixed read/write cycle the serving benchmark's
// serve_ingest workload drives over HTTP, in process: one iteration appends
// 4 096 rows and then reads once at each of three bounds — every read
// follows a write, so nothing above the joiner can answer it, and the delta
// grows from one background compaction (default threshold) to the next.
// Before the joiner kept partials every read re-probed its whole cover plan
// and re-inverted the whole tail; now it inverts the iteration's rows.
// "unsharded" is one engine, "shards=4" the scatter-gather over four.
func BenchmarkIngestRead(b *testing.B) {
	const base, block = 400_000, 4096
	regions := data.Regions(data.Partition(5, 16, 16, 12))
	pts, ws := data.TaxiPoints(9, base+16*block)
	reads := []struct {
		bound float64
		aggs  []distbound.Agg
	}{
		{64, []distbound.Agg{distbound.Count}},
		{16, []distbound.Agg{distbound.Count, distbound.Sum, distbound.Avg}},
		{32, []distbound.Agg{distbound.Count, distbound.Sum, distbound.Avg, distbound.Min, distbound.Max}},
	}
	ctx := context.Background()
	// cycle runs b.N iterations of appendBlock + the three reads, after one
	// untimed cycle that builds the cover plans.
	cycle := func(b *testing.B, appendBlock func(k int) error, read func(bound float64, aggs []distbound.Agg) error) {
		for i := -1; i < b.N; i++ {
			if i == 0 {
				b.ResetTimer()
			}
			if err := appendBlock((i + 1) % 16); err != nil {
				b.Fatal(err)
			}
			for _, r := range reads {
				if err := read(r.bound, r.aggs); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	blockOf := func(k int) ([]distbound.Point, []float64) {
		return pts[base+k*block : base+(k+1)*block], ws[base+k*block : base+(k+1)*block]
	}

	b.Run("unsharded", func(b *testing.B) {
		e := distbound.NewEngine(regions)
		ds, err := e.RegisterPoints("ingest", pts[:base], ws[:base])
		if err != nil {
			b.Fatal(err)
		}
		defer e.UnregisterPoints("ingest")
		pidx := distbound.StrategyPointIdx
		cycle(b, func(k int) error {
			p, w := blockOf(k)
			_, err := ds.Append(p, w)
			return err
		}, func(bound float64, aggs []distbound.Agg) error {
			resp, err := e.Do(ctx, distbound.Request{Dataset: ds, Aggs: aggs, Bound: bound, Strategy: &pidx, Workers: 1})
			resp.Release()
			return err
		})
	})
	b.Run("shards=4", func(b *testing.B) {
		s, _, err := New("ingest", regions, pts[:base], ws[:base], 4)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		cycle(b, func(k int) error {
			p, w := blockOf(k)
			_, err := s.Append(p, w)
			return err
		}, func(bound float64, aggs []distbound.Agg) error {
			_, err := s.Do(ctx, Request{Aggs: aggs, Bound: bound})
			return err
		})
	})
}

// BenchmarkShardedDo times one warm scatter-gather read over four shards at
// ε 64 with all five aggregates: "executed" with the result cache off, so
// every iteration scatters and merges, and "hit" served from the
// merged cache above the scatter. CI gates the hit at 0 allocs/op.
func BenchmarkShardedDo(b *testing.B) {
	regions := data.Regions(data.Partition(5, 16, 16, 12))
	pts, ws := data.TaxiPoints(9, 200_000)
	s, _, err := New("bench", regions, pts, ws, 4)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	req := Request{Aggs: []distbound.Agg{distbound.Count, distbound.Sum, distbound.Avg, distbound.Min, distbound.Max}, Bound: 64}
	for _, bc := range []struct {
		name     string
		capacity int
	}{{"executed", 0}, {"hit", distbound.DefaultResultCacheCapacity}} {
		b.Run(bc.name, func(b *testing.B) {
			s.SetResultCacheCapacity(bc.capacity)
			// The untimed read builds the cover set and, cached, fills the entry.
			if _, err := s.Do(ctx, req); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Do(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
