package join

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/pointstore"
	"distbound/internal/raster"
	"distbound/internal/sfc"
)

// The cover table must describe exactly the key set the rasterizer emitted —
// no additions, no gaps — through each of its three readers: the per-region
// index pairs the fill gathers spans through, the segment stab lists the
// delta inversion fans out over, and the interval test the shard router asks.
// checkTable pins all three against brute force over the covers themselves.

// stabbing returns the regions whose cover holds key, ascending.
func stabbing(covers [][]raster.PosRange, key uint64) []int32 {
	var out []int32
	for ri, rs := range covers {
		if coversKey(rs, key) {
			out = append(out, int32(ri))
		}
	}
	return out
}

// anyIntersects reports whether some cover range meets [lo, hi].
func anyIntersects(covers [][]raster.PosRange, lo, hi uint64) bool {
	for _, rs := range covers {
		i, _ := slices.BinarySearchFunc(rs, lo, func(r raster.PosRange, k uint64) int {
			if r.Hi < k {
				return -1
			}
			return 1
		})
		if i < len(rs) && rs[i].Lo <= hi {
			return true
		}
	}
	return false
}

// refBuildCoverPlan is buildCoverPlan's construction by sort and search:
// every Lo and Hi+1 appended, sorted and deduplicated, then each range's two
// indexes found by binary search. The merge-built table must equal it field
// for field.
func refBuildCoverPlan(covers [][]raster.PosRange) *coverPlan {
	p := &coverPlan{regOff: make([]int32, len(covers)+1)}
	for ri, rs := range covers {
		p.regOff[ri+1] = p.regOff[ri] + int32(len(rs))
	}
	var keys []uint64
	for _, rs := range covers {
		for _, r := range rs {
			keys = append(keys, r.Lo)
			if r.Hi != math.MaxUint64 {
				keys = append(keys, r.Hi+1)
			}
		}
	}
	slices.Sort(keys)
	p.bkeys = slices.Compact(keys)
	p.ranges = []keySpan{}
	for _, rs := range covers {
		for _, r := range rs {
			lo, _ := slices.BinarySearch(p.bkeys, r.Lo)
			hi := -1
			if r.Hi != math.MaxUint64 {
				hi, _ = slices.BinarySearch(p.bkeys, r.Hi+1)
			}
			p.ranges = append(p.ranges, keySpan{int32(lo), int32(hi)})
		}
	}
	p.buildStab()
	return p
}

// bucketProbes returns every radix bucket's first key, last key and one
// random key, each with the centre of its Hilbert leaf cell in a domain
// whose leaf cells are unit squares, computed once for every table
// checkTable checks.
var bucketProbes = sync.OnceValue(func() (pr struct {
	d    sfc.Domain
	keys []uint64
	pts  []geom.Point
}) {
	pr.d, _ = sfc.NewDomain(geom.Pt(0, 0), 1<<sfc.MaxLevel)
	rng := rand.New(rand.NewSource(8))
	for b := uint64(0); b < radixBuckets; b++ {
		first := b << radixShift
		for _, key := range []uint64{first, first + 1<<radixShift - 1, first + rng.Uint64()%(1<<radixShift)} {
			x, y := sfc.Hilbert{}.Decode(sfc.MaxLevel, key)
			pr.keys = append(pr.keys, key)
			pr.pts = append(pr.pts, geom.Pt(float64(x)+0.5, float64(y)+0.5))
		}
	}
	return pr
})

func checkTable(t *testing.T, label string, covers [][]raster.PosRange, rng *rand.Rand) {
	t.Helper()
	p := buildCoverPlan(covers)

	// The merge builds what sorting and searching build.
	ref := refBuildCoverPlan(covers)
	if !slices.Equal(p.bkeys, ref.bkeys) || !slices.Equal(p.regOff, ref.regOff) || !slices.Equal(p.ranges, ref.ranges) ||
		!slices.Equal(p.stabOff, ref.stabOff) || !slices.Equal(p.stabRegions, ref.stabRegions) {
		t.Fatalf("%s: the merge-built table differs from the sort-and-search one", label)
	}

	// (a) The pairs rebuild every region's ranges element for element.
	for ri, want := range covers {
		got := p.ranges[p.regOff[ri]:p.regOff[ri+1]]
		if len(got) != len(want) {
			t.Fatalf("%s region %d: %d ranges in the table, %d rasterized", label, ri, len(got), len(want))
		}
		for i, ks := range got {
			r := raster.PosRange{Lo: p.bkeys[ks.lo], Hi: math.MaxUint64}
			if ks.hi >= 0 {
				r.Hi = p.bkeys[ks.hi] - 1
			}
			if r != want[i] {
				t.Fatalf("%s region %d range %d: table holds %v, rasterizer emitted %v", label, ri, i, r, want[i])
			}
		}
	}
	if !slices.IsSorted(p.bkeys) || len(slices.Compact(slices.Clone(p.bkeys))) != len(p.bkeys) {
		t.Fatalf("%s: boundary keys are not strictly ascending", label)
	}

	// (b) Every segment's stab list is the set of regions covering its first
	// key — and its last, since no boundary falls inside a segment.
	for s, first := range p.bkeys {
		last := uint64(math.MaxUint64)
		if s+1 < len(p.bkeys) {
			last = p.bkeys[s+1] - 1
		}
		got := slices.Clone(p.stabRegions[p.stabOff[s]:p.stabOff[s+1]])
		slices.Sort(got)
		for _, key := range []uint64{first, last} {
			if want := stabbing(covers, key); !slices.Equal(got, want) {
				t.Fatalf("%s segment %d: stab list %v, regions covering key %d are %v", label, s, got, key, want)
			}
			if seg := p.segmentOf(key); seg != s {
				t.Fatalf("%s: key %d resolves to segment %d, want %d", label, key, seg, s)
			}
		}
	}
	if len(p.bkeys) > 0 && p.bkeys[0] > 0 && p.segmentOf(p.bkeys[0]-1) != -1 {
		t.Fatalf("%s: a key below every boundary resolved to a segment", label)
	}
	// The radix-indexed search ≡ a whole-table sort.Search, at every boundary
	// key ± 1 and at the radix edges: the 60-bit key space's ends, 2^60 (the
	// Hi+1 of a range ending on the last leaf) and MaxUint64.
	probes := []uint64{0, 1<<60 - 1, 1 << 60, 1<<60 + 1, math.MaxUint64}
	for _, k := range p.bkeys {
		probes = append(probes, k-1, k, k+1)
	}
	for _, key := range probes {
		want := sort.Search(len(p.bkeys), func(i int) bool { return p.bkeys[i] > key }) - 1
		if got := p.segmentOf(key); got != want {
			t.Fatalf("%s: segmentOf(%d) = %d, sort.Search says %d", label, key, got, want)
		}
	}

	// The coarse-cell resolve ≡ segmentOf, at every radix bucket's first
	// key, last key and one random key.
	bp := bucketProbes()
	segs := make([]int32, len(bp.pts))
	p.resolvePoints(bp.d, sfc.Hilbert{}, bp.pts, segs)
	for i, key := range bp.keys {
		if want := p.segmentOf(key); int(segs[i]) != want {
			t.Fatalf("%s: the point of key %d resolves to segment %d, segmentOf says %d", label, key, segs[i], want)
		}
	}

	// (c) intersects ≡ brute force, on intervals aligned to boundaries (each
	// sampled boundary ± 1 as either end) and on random ones.
	check := func(lo, hi uint64) {
		if lo > hi {
			lo, hi = hi, lo
		}
		if got, want := p.intersects(lo, hi), anyIntersects(covers, lo, hi); got != want {
			t.Fatalf("%s: intersects(%d, %d) = %v, brute force says %v", label, lo, hi, got, want)
		}
	}
	check(0, math.MaxUint64)
	for n := 0; n < 400 && len(p.bkeys) > 0; n++ {
		a, b := p.bkeys[rng.Intn(len(p.bkeys))], p.bkeys[rng.Intn(len(p.bkeys))]
		for _, lo := range []uint64{a - 1, a, a + 1} {
			check(lo, lo)
			for _, hi := range []uint64{b - 1, b, b + 1} {
				check(lo, hi)
			}
		}
		check(0, a-1)
		check(a, math.MaxUint64)
		check(rng.Uint64(), rng.Uint64())
	}
}

// randomCovers draws merged, Lo-ascending covers over a small key universe,
// so regions overlap, share boundaries and now and then share whole ranges.
func randomCovers(rng *rand.Rand, regions int, universe uint64) [][]raster.PosRange {
	covers := make([][]raster.PosRange, regions)
	for ri := range covers {
		var raw []raster.PosRange
		for n := rng.Intn(12); n > 0; n-- {
			lo := rng.Uint64() % universe
			raw = append(raw, raster.PosRange{Lo: lo, Hi: lo + rng.Uint64()%(universe/16)})
		}
		slices.SortFunc(raw, func(a, b raster.PosRange) int { return cmp.Compare(a.Lo, b.Lo) })
		for _, r := range raw {
			if n := len(covers[ri]); n > 0 && r.Lo <= covers[ri][n-1].Hi+1 { // overlapping or adjacent
				covers[ri][n-1].Hi = max(covers[ri][n-1].Hi, r.Hi)
				continue
			}
			covers[ri] = append(covers[ri], r)
		}
	}
	return covers
}

func TestCoverTableExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))

	t.Run("synthetic", func(t *testing.T) {
		for i := 0; i < 200; i++ {
			checkTable(t, fmt.Sprintf("random %d", i), randomCovers(rng, 1+rng.Intn(6), 512), rng)
		}
		const top = math.MaxUint64
		checkTable(t, "no regions", nil, rng)
		checkTable(t, "empty covers", [][]raster.PosRange{nil, {}, nil}, rng)
		checkTable(t, "identical covers", [][]raster.PosRange{
			{{Lo: 4, Hi: 9}, {Lo: 20, Hi: 20}}, {{Lo: 12, Hi: 15}}, {{Lo: 4, Hi: 9}, {Lo: 20, Hi: 20}},
		}, rng)
		checkTable(t, "ranges ending at MaxUint64", [][]raster.PosRange{
			{{Lo: 10, Hi: 20}, {Lo: top - 5, Hi: top}},
			{{Lo: 0, Hi: 12}, {Lo: top - 9, Hi: top - 3}},
			{{Lo: top, Hi: top}},
			{{Lo: 0, Hi: top}},
		}, rng)
		// Every key in one radix bucket, and ranges ending on the last leaf
		// (Hi+1 = 2^60, the bucket past the 60-bit keys).
		const block, leafEnd = 0xbeef << radixShift, 1<<60 - 1
		checkTable(t, "one radix bucket", [][]raster.PosRange{
			{{Lo: block + 3, Hi: block + 9}, {Lo: block + 40, Hi: block + 41}},
			{{Lo: block, Hi: block + 5}, {Lo: block + 1<<radixShift - 8, Hi: block + 1<<radixShift - 1}},
		}, rng)
		checkTable(t, "ranges ending on the last leaf", [][]raster.PosRange{
			{{Lo: 0, Hi: 7}, {Lo: leafEnd - 3, Hi: leafEnd}},
			{{Lo: leafEnd, Hi: leafEnd}},
		}, rng)
	})

	// The rasterizer's own output: random partitions × bounds × both boundary
	// policies, then regions that overlap each other and one polygon twice.
	d, c := data.CityDomain(), sfc.Hilbert{}
	t.Run("rasterized", func(t *testing.T) {
		for i := 0; i < 4; i++ {
			cols, rows := 1+rng.Intn(4), 1+rng.Intn(4)
			regions := data.Regions(data.Partition(rng.Int63(), cols, rows, 2+rng.Intn(6)))
			for _, eps := range []float64{16, 64, 200} {
				for _, mode := range []raster.Mode{raster.Conservative, raster.Centroid} {
					checkTable(t, fmt.Sprintf("partition %dx%d ε=%g %v", cols, rows, eps, mode), rasterCovers(regions, d, c, eps, mode), rng)
				}
			}
		}
		coarse := data.Regions(data.Partition(5, 2, 2, 4))
		fine := data.Regions(data.Partition(6, 3, 3, 4))
		overlapping := append(append(coarse, fine...), fine[4], coarse[0])
		checkTable(t, "overlapping and repeated regions", rasterCovers(overlapping, d, c, 32, raster.Conservative), rng)
	})
}

// syntheticJoiner pairs a cover table built from hand-made covers with a
// store, bypassing the rasterizer.
func syntheticJoiner(covers [][]raster.PosRange, src *pointstore.Mutable) *PointIdxJoiner {
	return (&CoverSet{bound: 1, plan: buildCoverPlan(covers)}).Attach(src)
}

// TestCoverTableExecutionOnSyntheticCovers runs the fill and the inversion
// over covers no rasterizer would emit for disjoint regions — overlapping,
// identical, and open-ended at MaxUint64 (the hi = -1 pair, resolved to the
// column end) — against the per-region reference, on inexact weights: every
// aggregate bit for bit, SUM and AVG excepted while a delta tail is present.
// Two regions with one cover must get one answer.
func TestCoverTableExecutionOnSyntheticCovers(t *testing.T) {
	d, c := data.CityDomain(), sfc.Hilbert{}
	pts, weights := data.TaxiPoints(9, 6000)
	store, err := pointstore.NewMutable(pts[:4000], weights[:4000], d, c)
	if err != nil {
		t.Fatal(err)
	}
	// Quantiles of the key column make covers that actually select rows.
	keys, _ := pointstore.SortedKeys(pts, d, c)
	q := func(f float64) uint64 { return keys[int(f*float64(len(keys)-1))] }
	covers := [][]raster.PosRange{
		{{Lo: q(0.1), Hi: q(0.2)}, {Lo: q(0.5), Hi: q(0.6) - 1}},
		{{Lo: q(0.15), Hi: q(0.55)}},
		{{Lo: q(0.1), Hi: q(0.2)}, {Lo: q(0.5), Hi: q(0.6) - 1}},
		{{Lo: 0, Hi: q(0.05)}, {Lo: q(0.9), Hi: math.MaxUint64}},
		{{Lo: q(0.6), Hi: q(0.6)}},
		nil,
	}
	pj := syntheticJoiner(covers, store)
	ctx := context.Background()
	check := func(label string, sumExact bool) {
		t.Helper()
		want := aggregatePerRegion(store.Snapshot(), covers, allFive)
		for _, workers := range []int{1, 3} {
			pj.dropPartials()
			got, err := residentAggregate(ctx, pj, allFive, workers)
			if err != nil {
				t.Fatal(err)
			}
			for k, agg := range allFive {
				if (agg == Sum || agg == Avg) && !sumExact {
					continue
				}
				bitIdentical(t, fmt.Sprintf("%s workers=%d %v", label, workers, agg), want[k], got[k])
			}
			for k := range allFive {
				if got[k].Counts[0] != got[k].Counts[2] ||
					(got[k].Sums != nil && math.Float64bits(got[k].Sums[0]) != math.Float64bits(got[k].Sums[2])) ||
					(got[k].Extremes != nil && math.Float64bits(got[k].Extremes[0]) != math.Float64bits(got[k].Extremes[2])) {
					t.Fatalf("%s: regions 0 and 2 share a cover but not %v", label, allFive[k])
				}
			}
		}
	}
	check("compact", true)
	store.Delete(3, 99, 1500, 2222)
	check("tombstoned", true)
	if _, err := store.Append(pts[4000:], weights[4000:]); err != nil {
		t.Fatal(err)
	}
	check("delta", false) // float sums re-associate across the delta tail by design
	store.Compact()
	check("compacted", true)
	if got, want := pj.NumRanges(), 8; got != want {
		t.Fatalf("NumRanges %d, want %d: a shared range is probed once per region holding it", got, want)
	}
}
