package approx

import (
	"math"

	"distbound/internal/geom"
)

// Quality captures the two error measures of §2.2 for one approximation of
// one polygon.
type Quality struct {
	Name string
	// FalseAreaRatio is (approx area − polygon area) / polygon area: how
	// much dead space the approximation adds (false-positive area for
	// conservative approximations).
	FalseAreaRatio float64
	// Hausdorff is the estimated Hausdorff distance between the polygon and
	// the approximation, the paper's distance-bound measure.
	Hausdorff float64
}

// Measure computes quality metrics for an approximation of p, using boundary
// samples spaced at most step apart. Smaller steps tighten the Hausdorff
// estimate.
func Measure(p *geom.Polygon, g Geometry, step float64) Quality {
	pa := p.Area()
	q := Quality{Name: g.Name()}
	if pa > 0 {
		q.FalseAreaRatio = (g.Area() - pa) / pa
	}
	aSamples := g.BoundarySamples(step)
	pSamples := geom.SampleRegionBoundary(p, step)

	// Directed distance approximation → polygon: attained on the
	// approximation outline.
	d1 := geom.DirectedHausdorff(aSamples, p)

	// Directed distance polygon → approximation: distance from each polygon
	// boundary sample to the approximation region (0 if inside, else nearest
	// outline sample).
	var d2 float64
	for _, s := range pSamples {
		if g.ContainsPoint(s) {
			continue
		}
		dmin := math.Inf(1)
		for _, a := range aSamples {
			if d := s.Dist2(a); d < dmin {
				dmin = d
			}
		}
		if d := math.Sqrt(dmin); d > d2 {
			d2 = d
		}
	}
	q.Hausdorff = math.Max(d1, d2)
	return q
}

// ContainmentError measures, over a set of probe points, how often the
// approximation's answer differs from the exact PIP answer, split into false
// positives and false negatives, plus the maximum boundary distance among
// the misclassified probes. For distance-bounded approximations that maximum
// must not exceed the bound — the paper's headline guarantee.
type ContainmentError struct {
	Probes         int
	FalsePositives int
	FalseNegatives int
	MaxErrorDist   float64
}

// MeasureContainment evaluates g against the exact polygon on the probes.
//
//distbound:oracle the approximation tests hold HR covers to the distance-bound guarantee with it
func MeasureContainment(p *geom.Polygon, g Geometry, probes []geom.Point) ContainmentError {
	var ce ContainmentError
	ce.Probes = len(probes)
	for _, pt := range probes {
		exact := p.ContainsPoint(pt)
		got := g.ContainsPoint(pt)
		if exact == got {
			continue
		}
		if got {
			ce.FalsePositives++
		} else {
			ce.FalseNegatives++
		}
		if d := p.BoundaryDist(pt); d > ce.MaxErrorDist {
			ce.MaxErrorDist = d
		}
	}
	return ce
}
