package geom

// Exact region-region intersection predicates: the expensive
// geometry-to-geometry tests that the raster set operations replace. They
// serve as the ground-truth oracle for the approximate intersection join and
// as the refinement step of exact baselines.

// PolygonsIntersect reports whether the two polygons share at least one
// point, handling edge crossings, containment and hole exclusion.
func PolygonsIntersect(a, b *Polygon) bool {
	if !a.Bounds().Intersects(b.Bounds()) {
		return false
	}
	// Any boundary crossing means intersection.
	for _, ra := range a.Rings() {
		for i := range ra {
			e := ra.Edge(i)
			for _, rb := range b.Rings() {
				if rb.IntersectsSegment(e) {
					return true
				}
			}
		}
	}
	// No boundary crossing: one polygon is entirely inside the other (or a
	// hole of the other), or they are disjoint — one representative vertex
	// per side decides, because containment is uniform without crossings.
	return a.ContainsPoint(b.Outer[0]) || b.ContainsPoint(a.Outer[0])
}

// RegionsIntersect reports whether two regions (Polygon or MultiPolygon)
// share at least one point.
func RegionsIntersect(a, b Region) bool {
	for _, pa := range Polygons(a) {
		for _, pb := range Polygons(b) {
			if PolygonsIntersect(pa, pb) {
				return true
			}
		}
	}
	return false
}

// RegionDistance returns an upper estimate of the distance between two
// disjoint regions, computed from boundary samples at the given step (0 when
// the regions intersect). It is the measurement tool for the intersection
// join's distance-bound guarantee.
func RegionDistance(a, b Region, step float64) float64 {
	if RegionsIntersect(a, b) {
		return 0
	}
	d := -1.0
	for _, s := range SampleRegionBoundary(a, step) {
		v := b.DistToPoint(s)
		if d < 0 || v < d {
			d = v
		}
	}
	if d < 0 {
		return 0
	}
	return d
}
