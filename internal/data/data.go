// Package data generates the synthetic stand-ins for the paper's workloads:
// NYC taxi pickup points and the Boroughs / Neighborhoods / Census region
// datasets. Real traces are not available offline, so the generators
// reproduce the properties the experiments are sensitive to — point skew
// (hotspot clusters), region counts, mean vertices per region, and the fact
// that regions form a partition with shared boundaries — while staying fully
// deterministic under a seed. See DESIGN.md §2 for the substitution
// rationale.
package data

import (
	"math"
	"math/rand"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// CitySize is the side length of the synthetic city square in meters
// (≈ 64 km, comparable to the NYC metropolitan extent).
const CitySize = 65536.0

// CityDomain returns the SFC domain used by all experiments: a CitySize
// square anchored at the origin.
func CityDomain() sfc.Domain {
	d, err := sfc.NewDomain(geom.Pt(0, 0), CitySize)
	if err != nil {
		panic("data: city domain construction cannot fail: " + err.Error())
	}
	return d
}

// CityBounds returns the city extent as a Rect.
func CityBounds() geom.Rect { return CityDomain().Bounds() }

// TaxiPoints generates n pickup locations as a mixture of Gaussian hotspot
// clusters (80%) and uniform background traffic (20%), plus a positive
// per-point attribute (a fare-like value) for SUM/AVG aggregation. Points
// are clamped into the city bounds. The same seed yields the same data.
func TaxiPoints(seed int64, n int) ([]geom.Point, []float64) {
	return TaxiPointsIn(seed, n, CityBounds())
}

// TaxiPointsIn is TaxiPoints over an arbitrary extent (used by experiments
// that zoom into a "downtown" sub-square of the city).
func TaxiPointsIn(seed int64, n int, bounds geom.Rect) ([]geom.Point, []float64) {
	rng := rand.New(rand.NewSource(seed))
	w, h := bounds.Width(), bounds.Height()
	scale := math.Min(w, h)
	const numClusters = 24
	type cluster struct {
		center geom.Point
		std    float64
		weight float64
	}
	clusters := make([]cluster, numClusters)
	var totalW float64
	for i := range clusters {
		clusters[i] = cluster{
			center: geom.Pt(
				bounds.Min.X+w*(0.1+0.8*rng.Float64()),
				bounds.Min.Y+h*(0.1+0.8*rng.Float64()),
			),
			std:    scale * (0.005 + rng.Float64()*0.034),
			weight: 0.2 + rng.Float64(),
		}
		totalW += clusters[i].weight
	}
	pick := func() cluster {
		r := rng.Float64() * totalW
		for _, c := range clusters {
			if r -= c.weight; r <= 0 {
				return c
			}
		}
		return clusters[numClusters-1]
	}
	clampX := func(v float64) float64 {
		return math.Min(math.Max(v, bounds.Min.X), bounds.Max.X-w*1e-12)
	}
	clampY := func(v float64) float64 {
		return math.Min(math.Max(v, bounds.Min.Y), bounds.Max.Y-h*1e-12)
	}
	pts := make([]geom.Point, n)
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		var p geom.Point
		if rng.Float64() < 0.8 {
			c := pick()
			p = geom.Pt(
				clampX(c.center.X+rng.NormFloat64()*c.std),
				clampY(c.center.Y+rng.NormFloat64()*c.std),
			)
		} else {
			p = geom.Pt(bounds.Min.X+rng.Float64()*w, bounds.Min.Y+rng.Float64()*h)
		}
		pts[i] = p
		// Fare-like attribute: base fee plus a skewed positive component.
		weights[i] = 3 + rng.ExpFloat64()*9
	}
	return pts, weights
}

// Partition generates a cols×rows partition of the city into simple
// polygons with shared, jittered boundaries: interior lattice corners are
// displaced and every lattice edge is replaced by a deterministic polyline
// with ptsPerEdge intermediate vertices, so adjacent polygons share their
// boundary polyline exactly (interiors are disjoint, the union covers the
// city). Each polygon has 4 + 4·ptsPerEdge vertices.
func Partition(seed int64, cols, rows, ptsPerEdge int) []*geom.Polygon {
	return PartitionIn(seed, CityBounds(), cols, rows, ptsPerEdge)
}

// PartitionIn is Partition over an arbitrary rectangular extent.
func PartitionIn(seed int64, bounds geom.Rect, cols, rows, ptsPerEdge int) []*geom.Polygon {
	if cols < 1 || rows < 1 || ptsPerEdge < 0 || bounds.IsEmpty() {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	cw := bounds.Width() / float64(cols)
	ch := bounds.Height() / float64(rows)

	// Jittered lattice: border corners stay on the city boundary (sliding
	// along it), interior corners move freely.
	lattice := make([][]geom.Point, cols+1)
	for i := range lattice {
		lattice[i] = make([]geom.Point, rows+1)
		for j := range lattice[i] {
			x := bounds.Min.X + float64(i)*cw
			y := bounds.Min.Y + float64(j)*ch
			jx := (rng.Float64() - 0.5) * cw * 0.4
			jy := (rng.Float64() - 0.5) * ch * 0.4
			if i == 0 || i == cols {
				jx = 0
			}
			if j == 0 || j == rows {
				jy = 0
			}
			lattice[i][j] = geom.Pt(x+jx, y+jy)
		}
	}

	// Edge polylines, generated once and shared by both incident cells.
	// hEdge[i][j] runs from lattice[i][j] to lattice[i+1][j]; vEdge[i][j]
	// from lattice[i][j] to lattice[i][j+1]. Intermediate points get
	// perpendicular jitter except on the city border.
	subdivide := func(a, b geom.Point, onBorder bool) []geom.Point {
		if ptsPerEdge == 0 {
			return nil
		}
		dir := b.Sub(a)
		l := math.Hypot(dir.X, dir.Y)
		if l == 0 {
			return nil
		}
		normal := geom.Pt(-dir.Y/l, dir.X/l)
		// Amplitude small enough to keep rings simple: well below the
		// spacing between consecutive polyline vertices.
		amp := 0.3 * l / float64(ptsPerEdge+1)
		out := make([]geom.Point, ptsPerEdge)
		for k := 1; k <= ptsPerEdge; k++ {
			t := float64(k) / float64(ptsPerEdge+1)
			p := a.Add(dir.Scale(t))
			if !onBorder {
				p = p.Add(normal.Scale((rng.Float64()*2 - 1) * amp))
			}
			out[k-1] = p
		}
		return out
	}

	hEdge := make([][][]geom.Point, cols)
	for i := 0; i < cols; i++ {
		hEdge[i] = make([][]geom.Point, rows+1)
		for j := 0; j <= rows; j++ {
			hEdge[i][j] = subdivide(lattice[i][j], lattice[i+1][j], j == 0 || j == rows)
		}
	}
	vEdge := make([][][]geom.Point, cols+1)
	for i := 0; i <= cols; i++ {
		vEdge[i] = make([][]geom.Point, rows)
		for j := 0; j < rows; j++ {
			vEdge[i][j] = subdivide(lattice[i][j], lattice[i][j+1], i == 0 || i == cols)
		}
	}

	reverse := func(ps []geom.Point) []geom.Point {
		out := make([]geom.Point, len(ps))
		for k, p := range ps {
			out[len(ps)-1-k] = p
		}
		return out
	}

	polys := make([]*geom.Polygon, 0, cols*rows)
	for j := 0; j < rows; j++ {
		for i := 0; i < cols; i++ {
			var ring geom.Ring
			// CCW: bottom → right → top (reversed) → left (reversed).
			ring = append(ring, lattice[i][j])
			ring = append(ring, hEdge[i][j]...)
			ring = append(ring, lattice[i+1][j])
			ring = append(ring, vEdge[i+1][j]...)
			ring = append(ring, lattice[i+1][j+1])
			ring = append(ring, reverse(hEdge[i][j+1])...)
			ring = append(ring, lattice[i][j+1])
			ring = append(ring, reverse(vEdge[i][j])...)
			polys = append(polys, geom.MustPolygon(ring))
		}
	}
	return polys
}

// Boroughs returns 5 large, complex polygons (≈ 663 vertices each,
// matching the paper's Borough statistics).
func Boroughs(seed int64) []*geom.Polygon {
	// 5×1 partition; 663 ≈ 4 + 4·165.
	return Partition(seed, 5, 1, 165)
}

// Neighborhoods returns 289 polygons with ≈ 30.6 vertices each (17×17
// partition, 4 + 4·7 = 32 vertices).
func Neighborhoods(seed int64) []*geom.Polygon {
	return Partition(seed, 17, 17, 7)
}

// Census returns n small, simple polygons with ≈ 14 vertices each. The
// paper uses 39,200; benchmarks default to a scaled-down count for run time
// and expose the knob. The grid shape is chosen to be as square as possible.
func Census(seed int64, n int) []*geom.Polygon {
	if n < 1 {
		n = 1
	}
	cols := int(math.Round(math.Sqrt(float64(n))))
	if cols < 1 {
		cols = 1
	}
	rows := (n + cols - 1) / cols
	polys := Partition(seed, cols, rows, 2) // 4 + 4·2 = 12..14 vertices
	if len(polys) > n {
		polys = polys[:n]
	}
	return polys
}

// Regions converts polygons to the Region interface.
func Regions(polys []*geom.Polygon) []geom.Region {
	out := make([]geom.Region, len(polys))
	for i, p := range polys {
		out[i] = p
	}
	return out
}

// DowntownBounds returns the central quarter of the city (≈ 16 km square),
// the zoomed-in extent used by the raster-join experiment so that canvas
// resolutions at meter-level bounds stay within software-rasterizer reach.
func DowntownBounds() geom.Rect {
	q := CitySize / 4
	return geom.Rect{Min: geom.Pt(1.5*q, 1.5*q), Max: geom.Pt(2.5*q, 2.5*q)}
}

// NeighborhoodRegions260In returns 260 regions over the 289 neighborhood
// cells of the extent, where 29 regions are multi-polygons of two cells —
// mirroring the Figure 7 workload note that "some of the regions are
// multi-polygons".
func NeighborhoodRegions260In(seed int64, bounds geom.Rect) []geom.Region {
	polys := PartitionIn(seed, bounds, 17, 17, 7)
	const merged = 29
	single := len(polys) - 2*merged // 231 single-cell regions
	out := make([]geom.Region, 0, single+merged)
	for i := 0; i < single; i++ {
		out = append(out, polys[i])
	}
	for k := 0; k < merged; k++ {
		out = append(out, geom.NewMultiPolygon(polys[single+2*k], polys[single+2*k+1]))
	}
	return out
}

// MeanVertices returns the mean vertex count of the polygons, the statistic
// the paper reports per dataset (663 / 30.6 / 13.6).
func MeanVertices(polys []*geom.Polygon) float64 {
	if len(polys) == 0 {
		return 0
	}
	total := 0
	for _, p := range polys {
		total += p.NumVertices()
	}
	return float64(total) / float64(len(polys))
}
