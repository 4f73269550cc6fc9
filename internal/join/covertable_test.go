package join

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// no additions, no gaps — through each of its two readers: the per-region
// index pairs the fill gathers spans through, and the segment stab lists the
// delta inversion fans out over. checkTable pins both against brute force
// over the covers themselves.

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

// splitCovers holds per-region range lists as the set descent hands them
// over: each region's list cut into pieces at random seams, a range now and
// then split in two across one.
func splitCovers(covers [][]raster.PosRange, rng *rand.Rand) []raster.Cover {
	out := make([]raster.Cover, len(covers))
	for ri, rs := range covers {
		var cur []raster.PosRange
		cut := func() {
			if len(cur) > 0 {
				out[ri] = append(out[ri], cur)
				cur = nil
			}
		}
		for _, r := range rs {
			if r.Lo < r.Hi && rng.Intn(4) == 0 {
				m := r.Lo + rng.Uint64()%(r.Hi-r.Lo)
				cur = append(cur, raster.PosRange{Lo: r.Lo, Hi: m})
				cut()
				r.Lo = m + 1
			}
			cur = append(cur, r)
			if rng.Intn(3) == 0 {
				cut()
			}
		}
		cut()
	}
	return out
}

// samePlan fails unless two cover tables are equal field for field.
func samePlan(t *testing.T, label string, got, want *coverPlan) {
	t.Helper()
	if !slices.Equal(got.bkeys, want.bkeys) || !slices.Equal(got.regOff, want.regOff) || !slices.Equal(got.ranges, want.ranges) ||
		!slices.Equal(got.stabOff, want.stabOff) || !slices.Equal(got.stabRegions, want.stabRegions) || !slices.Equal(got.radix, want.radix) ||
		!slices.Equal(got.resolved, want.resolved) {
		t.Fatalf("%s: the tables differ: %d keys and %d ranges, want %d and %d", label, len(got.bkeys), len(got.ranges), len(want.bkeys), len(want.ranges))
	}
}

func checkTable(t *testing.T, label string, covers [][]raster.PosRange, rng *rand.Rand) {
	t.Helper()
	p := buildCoverPlan(coversOf(covers))
	// Read through pieces cut at seams, the covers build the same table.
	samePlan(t, label+" (cut at seams)", buildCoverPlan(splitCovers(covers, rng)), p)

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

	// Every bucket resolution ≡ the search it skips, and the coarse-cell
	// lookup ≡ the segment search, at every radix bucket's first key, last
	// key and one random key.
	checkResolutions(t, label, p, rng)
	bp := bucketProbes()
	for i, key := range bp.keys {
		if got, want := p.stabPoint(bp.d, sfc.Hilbert{}, bp.pts[i]), searchedStab(p, key); !slices.Equal(got, want) {
			t.Fatalf("%s: the point of key %d meets regions %v, the segment search says %v", label, key, got, want)
		}
	}
}

// searchedStab is the stab list of key's segment as segmentOf finds it, the
// search a resolved bucket skips.
func searchedStab(p *coverPlan, key uint64) []int32 {
	seg := p.segmentOf(key)
	if seg < 0 {
		return nil
	}
	return p.stabRegions[p.stabOff[seg]:p.stabOff[seg+1]]
}

// checkResolutions holds every resolved radix bucket of p to the search it
// skips: at the bucket's first leaf key, its last and four seeded keys
// between, the one region or none it names must be the stab list of the
// segment segmentOf finds. It returns how many buckets are resolved.
func checkResolutions(t *testing.T, label string, p *coverPlan, rng *rand.Rand) (resolved int) {
	t.Helper()
	if len(p.resolved) != radixBuckets+1 {
		t.Fatalf("%s: %d bucket resolutions, want %d", label, len(p.resolved), radixBuckets+1)
	}
	for b, e := range p.resolved {
		if e == searchBucket {
			continue
		}
		resolved++
		first := uint64(b) << radixShift
		last := first + 1<<radixShift - 1
		if b == radixBuckets {
			last = math.MaxUint64
		}
		keys := []uint64{first, last}
		for range 4 {
			keys = append(keys, first+rng.Uint64()%(last-first))
		}
		for _, key := range keys {
			if got, want := p.stab(key), searchedStab(p, key); !slices.Equal(got, want) {
				t.Fatalf("%s: bucket %d resolves key %d to regions %v, the segment search says %v", label, b, key, got, want)
			}
		}
	}
	return resolved
}

// TestBucketResolutions walks every radix bucket of the tables the engine
// builds — CoverSet's at ε 2, 4, 16, 64 and 128 (16 and up under -short) and
// ExactCover's — on the bench partition, the Boroughs and the Neighborhoods,
// and holds each resolved bucket to the segment search (checkResolutions).
func TestBucketResolutions(t *testing.T) {
	d, c := data.CityDomain(), sfc.Hilbert{}
	ctx := context.Background()
	for name, polys := range map[string][]*geom.Polygon{
		"partition":     data.Partition(1, 16, 16, 12),
		"boroughs":      data.Boroughs(1),
		"neighborhoods": data.Neighborhoods(1),
	} {
		regions := data.Regions(polys)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(53))
			for _, eps := range []float64{2, 4, 16, 64, 128} {
				if testing.Short() && eps < 16 {
					continue
				}
				cs, err := NewCoverSetCtx(ctx, regions, d, c, levelOf(d, eps), 0)
				if err != nil {
					t.Fatal(err)
				}
				n := checkResolutions(t, fmt.Sprintf("cover set at ε %g", eps), cs.plan, rng)
				t.Logf("ε %g: %d of %d buckets resolved", eps, n, radixBuckets+1)
			}
			ec, err := NewExactCoverCtx(ctx, regions, d, c, 0)
			if err != nil {
				t.Fatal(err)
			}
			n := checkResolutions(t, "exact cover", ec.plan, rng)
			t.Logf("exact cover (L₀ %d): %d of %d buckets resolved", exactLevel(regions, d), n, radixBuckets+1)
		})
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

// TestCoverBuildsMatchPerRegionTables: the tables the set descent feeds —
// CoverSet's at ε 4, 16 and 64 (16 and 64 under -short) and ExactCover's —
// equal buildCoverPlan over each region's own rasterization, field for field,
// on the bench partition and the paper's region sets.
func TestCoverBuildsMatchPerRegionTables(t *testing.T) {
	d, c := data.CityDomain(), sfc.Hilbert{}
	ctx := context.Background()
	for name, polys := range map[string][]*geom.Polygon{
		"partition":     data.Partition(1, 16, 16, 12),
		"neighborhoods": data.Neighborhoods(1),
		"boroughs":      data.Boroughs(1),
		"census":        data.Census(13, 400),
	} {
		regions := data.Regions(polys)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, eps := range []float64{4, 16, 64} {
				if testing.Short() && eps < 16 {
					continue
				}
				cs, err := NewCoverSetCtx(ctx, regions, d, c, levelOf(d, eps), 0)
				if err != nil {
					t.Fatal(err)
				}
				samePlan(t, fmt.Sprintf("cover set at ε %g", eps), cs.plan, buildCoverPlan(coversOf(rasterCovers(regions, d, c, eps, raster.Conservative))))
			}
			ec, err := NewExactCoverCtx(ctx, regions, d, c, 0)
			if err != nil {
				t.Fatal(err)
			}
			level := exactLevel(regions, d)
			kinds := make([][]raster.PosRange, 2*len(regions))
			for ri, rg := range regions {
				a := raster.HierarchicalAtLevel(rg, d, c, level, raster.Conservative)
				kinds[2*ri] = (&raster.Approximation{Interior: a.Interior}).Ranges()
				kinds[2*ri+1] = (&raster.Approximation{Boundary: a.Boundary}).Ranges()
			}
			samePlan(t, "exact cover", ec.plan, buildCoverPlan(coversOf(kinds)))
		})
	}
}

// syntheticJoiner pairs a cover table built from hand-made covers with a
// store, bypassing the rasterizer.
func syntheticJoiner(covers [][]raster.PosRange, src *pointstore.Mutable) *PointIdxJoiner {
	return (&CoverSet{plan: buildCoverPlan(coversOf(covers))}).Attach(src)
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

// BenchmarkCoverBuild times a cold cover-set build — the set descent and the
// table — on the bench partition (16×16 regions, 12 points an edge), the
// Neighborhoods, the Boroughs and 400 Census tracts, at ε 4, 16 and 64, on
// one worker and on GOMAXPROCS. It reports the table's ranges beside the
// time and the bytes: B/op follows the ranges, not the cells, since the
// descent coalesces cells into ranges as they arrive and the table reads them
// from the descent's pieces in place.
func BenchmarkCoverBuild(b *testing.B) {
	d := data.CityDomain()
	for _, set := range []struct {
		name  string
		polys []*geom.Polygon
	}{
		{"partition", data.Partition(1, 16, 16, 12)},
		{"neighborhoods", data.Neighborhoods(1)},
		{"boroughs", data.Boroughs(1)},
		{"census", data.Census(13, 400)},
	} {
		regions := data.Regions(set.polys)
		for _, eps := range []float64{4, 16, 64} {
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				b.Run(fmt.Sprintf("%s/e%g/w%d", set.name, eps, workers), func(b *testing.B) {
					b.ReportAllocs()
					var cs *CoverSet
					for i := 0; i < b.N; i++ {
						var err error
						if cs, err = NewCoverSetCtx(context.Background(), regions, d, sfc.Hilbert{}, levelOf(d, eps), workers); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(cs.NumRanges()), "ranges")
				})
			}
		}
	}
}
