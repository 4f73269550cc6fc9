package raster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// This file stress-tests the paper's central guarantee over randomized
// domains, polygon shapes and construction parameters via testing/quick:
// for any simple polygon and any conservative distance-bounded
// approximation, (1) containment has no false negatives and (2) every false
// positive lies within the bound of the boundary.

// quickWorkload is a generatable description of one randomized check.
type quickWorkload struct {
	Seed      int64
	OriginX   float64
	OriginY   float64
	SizeExp   uint8 // domain size = 2^(6 + SizeExp%12)
	Verts     uint8
	BoundFrac uint8 // bound = size / (32 + 8*(BoundFrac%32))
}

func (w quickWorkload) domain() sfc.Domain {
	size := math.Pow(2, float64(6+w.SizeExp%12))
	ox := math.Mod(w.OriginX, 1e6)
	oy := math.Mod(w.OriginY, 1e6)
	if math.IsNaN(ox) || math.IsInf(ox, 0) {
		ox = 0
	}
	if math.IsNaN(oy) || math.IsInf(oy, 0) {
		oy = 0
	}
	d, err := sfc.NewDomain(geom.Pt(ox, oy), size)
	if err != nil {
		panic(err)
	}
	return d
}

func (w quickWorkload) polygon(d sfc.Domain) *geom.Polygon {
	rng := rand.New(rand.NewSource(w.Seed))
	n := 3 + int(w.Verts%24)
	c := d.Bounds().Center()
	rMax := d.Size * (0.1 + 0.3*rng.Float64())
	ring := make(geom.Ring, n)
	for i := range ring {
		ang := 2 * math.Pi * float64(i) / float64(n)
		r := rMax * (0.3 + 0.7*rng.Float64())
		ring[i] = geom.Pt(c.X+r*math.Cos(ang), c.Y+r*math.Sin(ang))
	}
	return geom.MustPolygon(ring)
}

func (w quickWorkload) bound(d sfc.Domain) float64 {
	return d.Size / float64(32+8*(w.BoundFrac%32))
}

func TestQuickConservativeGuarantee(t *testing.T) {
	check := func(w quickWorkload) bool {
		d := w.domain()
		p := w.polygon(d)
		eps := w.bound(d)
		a, err := Hierarchical(p, d, sfc.Hilbert{}, eps, Conservative)
		if err != nil {
			// Only legitimate for bounds below MaxLevel resolution, which
			// the generator construction makes impossible.
			t.Logf("unexpected build error: %v", err)
			return false
		}
		rng := rand.New(rand.NewSource(w.Seed ^ 0x5eed))
		for i := 0; i < 150; i++ {
			pt := geom.Pt(
				d.Origin.X+rng.Float64()*d.Size,
				d.Origin.Y+rng.Float64()*d.Size,
			)
			inside := p.ContainsPoint(pt)
			covered := a.ContainsPoint(pt)
			if inside && !covered {
				t.Logf("false negative at %v (domain %v, eps %g)", pt, d.Bounds(), eps)
				return false
			}
			if covered && !inside && p.BoundaryDist(pt) > eps {
				t.Logf("false positive beyond bound at %v (dist %g, eps %g)",
					pt, p.BoundaryDist(pt), eps)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickCoverBudgetConservative(t *testing.T) {
	check := func(w quickWorkload, budgetRaw uint8) bool {
		d := w.domain()
		p := w.polygon(d)
		budget := 8 + int(budgetRaw)%512
		a := CoverBudget(p, d, sfc.Hilbert{}, budget)
		if a.NumCells() > budget {
			t.Logf("budget exceeded: %d > %d", a.NumCells(), budget)
			return false
		}
		rng := rand.New(rand.NewSource(w.Seed ^ 0xc0ffee))
		for i := 0; i < 100; i++ {
			pt := geom.Pt(
				d.Origin.X+rng.Float64()*d.Size,
				d.Origin.Y+rng.Float64()*d.Size,
			)
			if p.ContainsPoint(pt) && !a.ContainsPoint(pt) {
				t.Logf("cover misses inside point %v (budget %d)", pt, budget)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
