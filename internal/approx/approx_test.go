package approx

import (
	"math"
	"math/rand"
	"testing"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

func star(rng *rand.Rand, cx, cy, rMin, rMax float64, n int) *geom.Polygon {
	ring := make(geom.Ring, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		r := rMin + rng.Float64()*(rMax-rMin)
		ring[i] = geom.Pt(cx+r*math.Cos(ang), cy+r*math.Sin(ang))
	}
	return geom.MustPolygon(ring)
}

func testDomain(t *testing.T) sfc.Domain {
	t.Helper()
	d, err := sfc.NewDomain(geom.Pt(0, 0), 1024)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// allApproximations builds every approximation kind for p.
func allApproximations(t *testing.T, p *geom.Polygon, d sfc.Domain) []Geometry {
	t.Helper()
	hr, err := HR(p, d, sfc.Hilbert{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []Geometry{
		MBR(p), RMBR(p), MBC(p), CH(p), NCorner(p, 5), CBR(p),
		UR(p, d, sfc.Morton{}, 8), hr,
	}
}

func TestAllApproximationsEncloseConvexInput(t *testing.T) {
	// For containment-style (conservative) approximations, every point of
	// the polygon must be contained.
	d := testDomain(t)
	rng := rand.New(rand.NewSource(1))
	p := star(rng, 512, 512, 100, 250, 14)
	for _, g := range allApproximations(t, p, d) {
		misses := 0
		for i := 0; i < 2000; i++ {
			pt := geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
			if p.ContainsPoint(pt) && !g.ContainsPoint(pt) {
				misses++
			}
		}
		if misses > 0 {
			t.Errorf("%s: %d false negatives on a conservative approximation", g.Name(), misses)
		}
	}
}

// TestMBCHoldsEveryVertex: the circle passes through some of the polygon's
// own vertices, which land on it only up to rounding — each must still test
// inside, or the conservative approximation drops a point of the polygon.
func TestMBCHoldsEveryVertex(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 500; trial++ {
		cx, cy := rng.Float64()*1024, rng.Float64()*1024
		r := 1 + rng.Float64()*500
		p := star(rng, cx, cy, r/3, r, 3+rng.Intn(30))
		g := MBC(p)
		for _, v := range p.Outer {
			if !g.ContainsPoint(v) {
				t.Fatalf("trial %d: vertex %v outside its own MBC", trial, v)
			}
		}
	}
}

func TestApproxAreasOrdered(t *testing.T) {
	// MBR dominates RMBR dominates CH in area; CH has the least area of the
	// convex approximations.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		p := star(rng, 512, 512, 80, 240, 6+rng.Intn(20))
		mbr, rmbr, ch := MBR(p).Area(), RMBR(p).Area(), CH(p).Area()
		const slack = 1 + 1e-9
		if rmbr > mbr*slack {
			t.Errorf("trial %d: RMBR area %g exceeds MBR %g", trial, rmbr, mbr)
		}
		if ch > rmbr*slack {
			t.Errorf("trial %d: CH area %g exceeds RMBR %g", trial, ch, rmbr)
		}
		if cbr := CBR(p).Area(); cbr > mbr*slack {
			t.Errorf("trial %d: CBR area %g exceeds MBR %g", trial, cbr, mbr)
		}
		if nc := NCorner(p, 5).Area(); nc < ch/slack {
			t.Errorf("trial %d: 5-corner area %g below hull %g", trial, nc, ch)
		}
	}
}

func TestRasterHausdorffWithinBound(t *testing.T) {
	d := testDomain(t)
	rng := rand.New(rand.NewSource(3))
	p := star(rng, 512, 512, 80, 240, 12)
	eps := 8.0
	hr, err := HR(p, d, sfc.Hilbert{}, eps)
	if err != nil {
		t.Fatal(err)
	}
	q := Measure(p, hr, 1)
	if q.Hausdorff > eps {
		t.Errorf("HR Hausdorff %g exceeds bound %g", q.Hausdorff, eps)
	}
	ur := UR(p, d, sfc.Morton{}, 9) // cell side 2, diagonal 2.83
	q2 := Measure(p, ur, 0.5)
	if bound := d.CellDiagonal(9); q2.Hausdorff > bound {
		t.Errorf("UR Hausdorff %g exceeds diagonal bound %g", q2.Hausdorff, bound)
	}
}

func TestMBRHausdorffIsDataDependent(t *testing.T) {
	// §2.2: the MBR's Hausdorff distance is unbounded — a thin diagonal
	// sliver has a corner far from any polygon point — while the raster
	// bound stays fixed. Elongating the sliver grows the MBR error but not
	// the raster error.
	dom := testDomain(t)
	thin := func(l float64) *geom.Polygon {
		return geom.MustPolygon(geom.Ring{
			geom.Pt(100, 100), geom.Pt(100+l, 100+l), geom.Pt(100+l+2, 100+l), geom.Pt(102, 100),
		})
	}
	prev := 0.0
	for _, l := range []float64{50, 100, 200, 400} {
		p := thin(l)
		qMBR := Measure(p, MBR(p), 2)
		if qMBR.Hausdorff <= prev {
			t.Errorf("l=%g: MBR Hausdorff %g did not grow (prev %g)", l, qMBR.Hausdorff, prev)
		}
		prev = qMBR.Hausdorff
		hr, err := HR(p, dom, sfc.Hilbert{}, 8)
		if err != nil {
			t.Fatal(err)
		}
		qHR := Measure(p, hr, 1)
		if qHR.Hausdorff > 8 {
			t.Errorf("l=%g: HR Hausdorff %g exceeds bound 8", l, qHR.Hausdorff)
		}
	}
	if prev < 100 {
		t.Errorf("MBR Hausdorff stayed small (%g); expected unbounded growth", prev)
	}
}

func TestCBRTighterThanMBR(t *testing.T) {
	// A diamond leaves large empty MBR corners; CBR must clip them.
	p := geom.MustPolygon(geom.Ring{
		geom.Pt(50, 0), geom.Pt(100, 50), geom.Pt(50, 100), geom.Pt(0, 50),
	})
	mbr, cbr := MBR(p), CBR(p)
	if cbr.Area() >= mbr.Area() {
		t.Errorf("CBR area %g not below MBR area %g", cbr.Area(), mbr.Area())
	}
	// Clipped corners exclude the dead space.
	if cbr.ContainsPoint(geom.Pt(1, 1)) {
		t.Error("CBR contains clipped corner point")
	}
	if !cbr.ContainsPoint(geom.Pt(50, 50)) {
		t.Error("CBR misses polygon center")
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		pt := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		if p.ContainsPoint(pt) && !cbr.ContainsPoint(pt) {
			t.Fatalf("CBR false negative at %v", pt)
		}
	}
}

func TestMeasureContainment(t *testing.T) {
	d := testDomain(t)
	rng := rand.New(rand.NewSource(5))
	p := star(rng, 512, 512, 80, 240, 10)
	probes := make([]geom.Point, 5000)
	for i := range probes {
		probes[i] = geom.Pt(rng.Float64()*1024, rng.Float64()*1024)
	}
	eps := 8.0
	hr, err := HR(p, d, sfc.Hilbert{}, eps)
	if err != nil {
		t.Fatal(err)
	}
	ce := MeasureContainment(p, hr, probes)
	if ce.FalseNegatives != 0 {
		t.Errorf("conservative HR produced %d false negatives", ce.FalseNegatives)
	}
	if ce.MaxErrorDist > eps {
		t.Errorf("HR error distance %g exceeds bound %g", ce.MaxErrorDist, eps)
	}
	ceMBR := MeasureContainment(p, MBR(p), probes)
	if ceMBR.FalsePositives <= ce.FalsePositives {
		t.Errorf("MBR false positives (%d) not above HR's (%d)", ceMBR.FalsePositives, ce.FalsePositives)
	}
	if ce.Probes != len(probes) {
		t.Error("probe count not recorded")
	}
}

func TestFalseAreaRatioOrdering(t *testing.T) {
	// Raster approximations at a fine level must have far less dead space
	// than the MBR for a star-shaped polygon.
	d := testDomain(t)
	rng := rand.New(rand.NewSource(6))
	p := star(rng, 512, 512, 60, 250, 16)
	mbrQ := Measure(p, MBR(p), 4)
	urQ := Measure(p, UR(p, d, sfc.Morton{}, 9), 4)
	if urQ.FalseAreaRatio >= mbrQ.FalseAreaRatio {
		t.Errorf("UR false area %g not below MBR %g", urQ.FalseAreaRatio, mbrQ.FalseAreaRatio)
	}
	if urQ.FalseAreaRatio < 0 {
		t.Errorf("conservative UR false area negative: %g", urQ.FalseAreaRatio)
	}
}

func TestNames(t *testing.T) {
	d := testDomain(t)
	rng := rand.New(rand.NewSource(7))
	p := star(rng, 512, 512, 100, 200, 8)
	want := map[string]bool{
		"MBR": true, "RMBR": true, "MBC": true, "CH": true,
		"5-C": true, "CBR": true, "UR": true, "HR": true,
	}
	for _, g := range allApproximations(t, p, d) {
		if !want[g.Name()] {
			t.Errorf("unexpected name %q", g.Name())
		}
		delete(want, g.Name())
	}
	if len(want) > 0 {
		t.Errorf("missing approximations: %v", want)
	}
	if NCorner(p, 4).Name() != "4-C" || NCorner(p, 7).Name() != "n-C" {
		t.Error("n-corner naming wrong")
	}
}
