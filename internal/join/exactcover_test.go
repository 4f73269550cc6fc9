package join

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"distbound/internal/data"
	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// The exact cover must answer what the R*-tree join answers, bit for bit, on
// every point — including the ones its shortcuts are most likely to get wrong:
// points on region edges and vertices, on the grid lines the cover's cells
// end at and an ulp either side, regions whose edges lie on those lines or an
// ulp off them, and points no cell holds (NaN, ±Inf, outside the domain).

// exactFixture is a region set over the domain the engine would give it, with
// the points that probe it.
type exactFixture struct {
	name    string
	regions []geom.Region
	d       sfc.Domain
	pts     []geom.Point
}

// unionDomain is the engine's domain for the regions (DomainForRegions).
func unionDomain(regions []geom.Region) sfc.Domain {
	b := geom.EmptyRect()
	for _, rg := range regions {
		b = b.Union(rg.Bounds())
	}
	return sfc.DomainForRect(b)
}

// ulps returns v nudged by k ulps (k may be negative).
func ulps(v float64, k int) float64 {
	dir := math.Inf(1)
	if k < 0 {
		dir, k = math.Inf(-1), -k
	}
	for ; k > 0; k-- {
		v = math.Nextafter(v, dir)
	}
	return v
}

// gridFixture is a region set over a domain whose grid lines are not dyadic
// numbers, so Domain.Coord rounds near them, with the points that probe it:
//   - at the alignment level 5, squares whose edges lie exactly on grid lines,
//     two that share an edge, and squares whose edges lie one or two ulps
//     inside or outside the lines, probed along and across every edge;
//   - at the cover's own level 7, on every grid line x = g where Coord keys
//     the point one ulp left of it into the cell right of it, a quadrilateral
//     whose left edge climbs from g − 1 ulp to g: that cell lies wholly
//     inside it, the point outside. Only the leaf-cell guard keeps the point
//     from being counted through the cell its key names.
func gridFixture() ([]geom.Region, sfc.Domain, int, []geom.Point) {
	d := sfc.DomainForRect(geom.Rect{Max: geom.Pt(1234.5, 1234.5)})
	const la, lc = 5, 7
	line := func(k uint32, level int) float64 { return d.CellRect(k, k, level).Min.X }
	square := func(i, j, w uint32, nudge int) geom.Region {
		x0, y0 := ulps(line(i, la), -nudge), ulps(line(j, la), -nudge)
		x1, y1 := ulps(line(i+w, la), nudge), ulps(line(j+w, la), nudge)
		return geom.MustPolygon(geom.Ring{geom.Pt(x0, y0), geom.Pt(x1, y0), geom.Pt(x1, y1), geom.Pt(x0, y1)})
	}
	regions := []geom.Region{
		square(2, 2, 5, 0), square(7, 2, 5, 0), // sharing the edge x = line(7)
		square(2, 12, 5, 1), square(12, 12, 5, -1),
		square(20, 3, 5, 2), square(21, 21, 5, -2),
	}
	pts := squareEdgePoints(regions)
	const y0, y1, width = 400.0, 600.0, 190.0
	for k := uint32(1); k < 1<<lc && line(k, lc)+width < d.Size; k++ {
		g := line(k, lc)
		p := geom.Pt(ulps(g, -1), (y0+y1)/2)
		if x, _, _ := d.Coord(p, sfc.MaxLevel); x>>(sfc.MaxLevel-lc) < k {
			continue
		}
		regions = append(regions, geom.MustPolygon(geom.Ring{
			geom.Pt(p.X, y0), geom.Pt(g+width, y0), geom.Pt(g+width, y1), geom.Pt(g, y1)}))
		for _, y := range []float64{y0 + 10, p.Y, y1 - 10} {
			pts = append(pts, geom.Pt(p.X, y), geom.Pt(ulps(p.X, -1), y), geom.Pt(g, y))
		}
	}
	return regions, d, lc, pts
}

// probePoints returns n uniform points over the domain and a rim around it,
// every ring vertex and edge midpoint of the regions, points on the level
// grid lines and ±1–2 ulps either side, and NaN, ±Inf and out-of-domain
// points.
func probePoints(rng *rand.Rand, regions []geom.Region, d sfc.Domain, level, n int) []geom.Point {
	b := d.Bounds()
	rim := 0.02 * d.Size
	var pts []geom.Point
	for range n {
		pts = append(pts, geom.Pt(b.Min.X-rim+rng.Float64()*(d.Size+2*rim), b.Min.Y-rim+rng.Float64()*(d.Size+2*rim)))
	}
	for _, rg := range regions {
		for _, p := range geom.Polygons(rg) {
			for _, ring := range p.Rings() {
				for i, v := range ring {
					w := ring[(i+1)%len(ring)]
					pts = append(pts, v, geom.Pt((v.X+w.X)/2, (v.Y+w.Y)/2))
				}
			}
		}
	}
	cells := uint32(1) << level
	for range 200 {
		g := d.CellRect(uint32(rng.Intn(int(cells))), uint32(rng.Intn(int(cells))), level).Min
		t := b.Min.X + rng.Float64()*d.Size
		for k := -2; k <= 2; k++ {
			pts = append(pts, geom.Pt(ulps(g.X, k), t), geom.Pt(t, ulps(g.Y, k)), geom.Pt(ulps(g.X, k), ulps(g.Y, -k)))
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	c := b.Center()
	return append(pts, geom.Pt(nan, c.Y), geom.Pt(c.X, nan), geom.Pt(nan, nan), geom.Pt(inf, c.Y), geom.Pt(c.X, -inf),
		geom.Pt(-inf, inf), geom.Pt(b.Min.X-1, c.Y), geom.Pt(c.X, b.Max.Y+1), geom.Pt(ulps(b.Min.X, -1), c.Y), geom.Pt(b.Max.X, b.Max.Y))
}

// squareEdgePoints returns points along every square's edges — on the edge
// and 1–2 ulps either side, across it — and at its corners.
func squareEdgePoints(regions []geom.Region) []geom.Point {
	var pts []geom.Point
	for _, rg := range regions {
		r := rg.Bounds()
		for _, f := range []float64{0, 0.125, 0.5, 0.875, 1} {
			x, y := r.Min.X+f*r.Width(), r.Min.Y+f*r.Height()
			for k := -2; k <= 2; k++ {
				pts = append(pts,
					geom.Pt(ulps(r.Min.X, k), y), geom.Pt(ulps(r.Max.X, k), y),
					geom.Pt(x, ulps(r.Min.Y, k)), geom.Pt(x, ulps(r.Max.Y, k)),
					geom.Pt(ulps(r.Min.X, k), ulps(r.Min.Y, k)), geom.Pt(ulps(r.Max.X, k), ulps(r.Max.Y, -k)))
			}
		}
	}
	return pts
}

// exactFixtures builds every region set the exact cover is held to.
func exactFixtures() []exactFixture {
	rng := rand.New(rand.NewSource(31))
	var out []exactFixture
	add := func(name string, regions []geom.Region, d sfc.Domain, extra []geom.Point, n int) {
		pts := append(probePoints(rng, regions, d, exactLevel(regions, d), n), extra...)
		out = append(out, exactFixture{name, regions, d, pts})
	}
	bench := data.Regions(data.Partition(1, 16, 16, 12))
	taxi, _ := data.TaxiPoints(3, 20000)
	add("bench partition", bench, unionDomain(bench), taxi, 5000)
	for name, polys := range map[string][]*geom.Polygon{"neighborhoods": data.Neighborhoods(2), "boroughs": data.Boroughs(3)} {
		regions := data.Regions(polys)
		add(name, regions, unionDomain(regions), taxi[:5000], 5000)
	}

	sq := func(x0, y0, x1, y1 float64) geom.Ring {
		return geom.Ring{geom.Pt(x0, y0), geom.Pt(x1, y0), geom.Pt(x1, y1), geom.Pt(x0, y1)}
	}
	holed := geom.MustPolygon(sq(100, 100, 900, 700), sq(300, 200, 600, 500))
	overlap := geom.NewMultiPolygon(geom.MustPolygon(sq(150, 650, 550, 950)), geom.MustPolygon(
		geom.Ring{geom.Pt(400, 600), geom.Pt(980, 610), geom.Pt(700, 990)}))
	circle := geom.Circle{Center: geom.Pt(640, 360), Radius: 237.3}
	shapes := []geom.Region{holed, overlap, circle}
	var onCircle []geom.Point
	for i := range 64 {
		a := 2 * math.Pi * float64(i) / 64
		p := geom.Pt(circle.Center.X+circle.Radius*math.Cos(a), circle.Center.Y+circle.Radius*math.Sin(a))
		onCircle = append(onCircle, p, geom.Pt(ulps(p.X, 1), p.Y), geom.Pt(p.X, ulps(p.Y, -1)))
	}
	add("hole, overlapping multipolygon, circle", shapes, unionDomain(shapes), onCircle, 20000)

	grid, d, _, onLines := gridFixture()
	add("grid-aligned squares", grid, d, onLines, 20000)
	return out
}

// weightsFor returns inexact weights of both signs, so a SUM folded in any
// other order differs in its low bits.
func weightsFor(n int) []float64 {
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = float64(i%13-6)*1.37 + float64(i%7)*1e-3
	}
	return ws
}

// checkExactCover holds the exact cover to the R*-tree join (all five
// aggregates, bitwise) and to brute force (COUNT) on ps, at each worker count.
func checkExactCover(t testing.TB, label string, ec *ExactCover, rj *RStarJoiner, regions []geom.Region, ps PointSet, workers ...int) {
	t.Helper()
	ctx := context.Background()
	brute, err := BruteForce(ps, regions, Count)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		want, err := rj.AggregateMulti(ctx, ps, allFive, w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ec.AggregateMulti(ctx, ps, allFive, w)
		if err != nil {
			t.Fatal(err)
		}
		for k, agg := range allFive {
			bitIdentical(t, fmt.Sprintf("%s workers=%d %v", label, w, agg), want[k], got[k])
		}
		for ri, n := range brute.Counts {
			if got[0].Counts[ri] != n {
				t.Fatalf("%s workers=%d region %d: count %d, brute force %d", label, w, ri, got[0].Counts[ri], n)
			}
		}
	}
}

func TestExactCoverMatchesRStar(t *testing.T) {
	ctx := context.Background()
	for _, fx := range exactFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			ec, err := NewExactCoverCtx(ctx, fx.regions, fx.d, sfc.Hilbert{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("level %d, %d ranges, %d points", exactLevel(fx.regions, fx.d), ec.NumRanges(), len(fx.pts))
			rj := NewRStarJoiner(fx.regions, 0)
			ps := PointSet{Pts: fx.pts, Weights: weightsFor(len(fx.pts))}
			checkExactCover(t, fx.name, ec, rj, fx.regions, ps, 1, 2, 3)
			checkExactCover(t, fx.name+" (no points)", ec, rj, fx.regions, PointSet{Pts: []geom.Point{}, Weights: []float64{}}, 1, 3)
		})
	}
	grid, d, level, _ := gridFixture()
	if l := exactLevel(grid, d); l != level || len(grid) < 8 {
		t.Fatalf("the grid fixture's cover is at level %d, not %d, over %d regions", l, level, len(grid))
	}
}

// TestExactLevel pins the level rule on the benchmark's partition.
func TestExactLevel(t *testing.T) {
	regions := data.Regions(data.Partition(1, 16, 16, 12))
	if got := exactLevel(regions, unionDomain(regions)); got != 8 {
		t.Fatalf("exactLevel on the 16×16 partition = %d, want 8", got)
	}
	if got := exactLevel(nil, unionDomain(regions)); got != 0 {
		t.Fatalf("exactLevel of no regions = %d, want 0", got)
	}
}

// TestExactLevelBounded: a region set whose median MBR is a point — two
// zero-radius circles and a 1 cm square beside a city-sized slanted polygon —
// must not drive the cover to the leaf level, where the large polygon's edge
// alone would be billions of cells. The cell budget caps the level, the table
// stays a bounded number of ranges, and the answers stay exact.
func TestExactLevelBounded(t *testing.T) {
	sq := func(x, y, s float64) geom.Ring {
		return geom.Ring{geom.Pt(x, y), geom.Pt(x+s, y), geom.Pt(x+s, y+s), geom.Pt(x, y+s)}
	}
	city := geom.MustPolygon(geom.Ring{geom.Pt(0, 3000), geom.Pt(17000, 0), geom.Pt(21000, 14000), geom.Pt(2500, 16000)})
	regions := []geom.Region{
		geom.Circle{Center: geom.Pt(5000, 5000)},
		geom.Circle{Center: geom.Pt(9000.25, 7000.5)},
		geom.MustPolygon(sq(12000, 8000, 0.01)),
		city,
	}
	d := unionDomain(regions)
	level := exactLevel(regions, d)
	hp := 0.0
	for _, rg := range regions {
		hp += rg.Bounds().Width() + rg.Bounds().Height()
	}
	if level >= sfc.MaxLevel || hp/d.CellSide(level) > exactCellBudget {
		t.Fatalf("level %d: half-perimeters span %.0f cells, budget %d", level, hp/d.CellSide(level), exactCellBudget)
	}
	ec, err := NewExactCoverCtx(context.Background(), regions, d, sfc.Hilbert{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := ec.NumRanges(); n > 4*exactCellBudget {
		t.Fatalf("level %d: %d ranges, want at most %d", level, n, 4*exactCellBudget)
	}
	t.Logf("level %d, %d ranges", level, ec.NumRanges())
	rng := rand.New(rand.NewSource(32))
	pts := probePoints(rng, regions, d, level, 20000)
	pts = append(pts, geom.Pt(5000, 5000), geom.Pt(9000.25, 7000.5), geom.Pt(12000.005, 8000.005), geom.Pt(ulps(5000, 1), 5000))
	rj := NewRStarJoiner(regions, 0)
	checkExactCover(t, "tiny beside large", ec, rj, regions, PointSet{Pts: pts, Weights: weightsFor(len(pts))}, 1, 2)
}

// exactFuzzState caches each fixture's exact cover and R*-tree across fuzz
// inputs.
var exactFuzzState struct {
	once sync.Once
	fxs  []exactFixture
	ec   []*ExactCover
	rj   []*RStarJoiner
}

// FuzzExactCover probes each fixture with a point, that point nudged an ulp
// each way in x and y, and the nearest grid corner of the cover's level: every
// aggregate must equal the R*-tree join's and COUNT brute force's.
func FuzzExactCover(f *testing.F) {
	st := &exactFuzzState
	st.once.Do(func() {
		st.fxs = exactFixtures()
		for _, fx := range st.fxs {
			ec, err := NewExactCoverCtx(context.Background(), fx.regions, fx.d, sfc.Hilbert{}, 0)
			if err != nil {
				panic(err)
			}
			st.ec = append(st.ec, ec)
			st.rj = append(st.rj, NewRStarJoiner(fx.regions, 0))
		}
	})
	for i, fx := range st.fxs {
		for _, p := range fx.pts[len(fx.pts)-40:] {
			f.Add(uint8(i), p.X, p.Y, 1.5)
		}
		c := fx.d.Bounds().Center()
		f.Add(uint8(i), c.X, c.Y, -2.25)
	}
	f.Fuzz(func(t *testing.T, fi uint8, x, y, w float64) {
		i := int(fi) % len(st.fxs)
		fx := st.fxs[i]
		pts := []geom.Point{geom.Pt(x, y), geom.Pt(ulps(x, 1), y), geom.Pt(ulps(x, -1), y), geom.Pt(x, ulps(y, 1)), geom.Pt(x, ulps(y, -1))}
		if gx, gy, ok := fx.d.Coord(geom.Pt(x, y), exactLevel(fx.regions, fx.d)); ok {
			g := fx.d.CellRect(gx, gy, exactLevel(fx.regions, fx.d)).Min
			pts = append(pts, g, geom.Pt(ulps(g.X, -1), g.Y), geom.Pt(g.X, ulps(g.Y, -1)))
		}
		ws := make([]float64, len(pts))
		for k := range ws {
			ws[k] = w * float64(k+1)
		}
		checkExactCover(t, fx.name, st.ec[i], st.rj[i], fx.regions, PointSet{Pts: pts, Weights: ws}, 1)
	})
}
