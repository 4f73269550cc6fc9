package join

import (
	"math"

	"distbound/internal/geom"
)

// GridJoiner is the "accurate GPU Baseline" of §5.2 run on the CPU: points
// are bucketed into a uniform grid (1024² cells in the paper); for each
// region, the grid cells overlapping the region's bounding box are scanned
// and every point in them is refined with an exact PIP test.
type GridJoiner struct {
	bounds geom.Rect
	res    int
	cellW  float64
	cellH  float64
	// buckets[y*res+x] lists point indices.
	buckets [][]int32
	ps      PointSet
}

// DefaultGridResolution matches the paper's 1024² grid index.
const DefaultGridResolution = 1024

// NewGridJoiner buckets the points. resolution ≤ 0 selects the default.
func NewGridJoiner(ps PointSet, bounds geom.Rect, resolution int) *GridJoiner {
	if resolution <= 0 {
		resolution = DefaultGridResolution
	}
	j := &GridJoiner{
		bounds:  bounds,
		res:     resolution,
		cellW:   bounds.Width() / float64(resolution),
		cellH:   bounds.Height() / float64(resolution),
		buckets: make([][]int32, resolution*resolution),
		ps:      ps,
	}
	for i, p := range ps.Pts {
		x, y, ok := j.cellOf(p)
		if !ok {
			continue
		}
		j.buckets[y*j.res+x] = append(j.buckets[y*j.res+x], int32(i))
	}
	return j
}

func (j *GridJoiner) cellOf(p geom.Point) (int, int, bool) {
	if !j.bounds.ContainsPoint(p) {
		return 0, 0, false
	}
	x := int((p.X - j.bounds.Min.X) / j.cellW)
	y := int((p.Y - j.bounds.Min.Y) / j.cellH)
	if x >= j.res {
		x = j.res - 1
	}
	if y >= j.res {
		y = j.res - 1
	}
	return x, y, true
}

// Aggregate runs the exact grid-filtered join.
func (j *GridJoiner) Aggregate(regions []geom.Region, agg Agg) (Result, error) {
	if err := j.ps.validate(agg); err != nil {
		return Result{}, err
	}
	res := newResult(agg, len(regions))
	a := res.acc()
	for ri, rg := range regions {
		bb := rg.Bounds().Intersection(j.bounds)
		if bb.IsEmpty() {
			continue
		}
		x0 := int(math.Floor((bb.Min.X - j.bounds.Min.X) / j.cellW))
		y0 := int(math.Floor((bb.Min.Y - j.bounds.Min.Y) / j.cellH))
		x1 := int(math.Floor((bb.Max.X - j.bounds.Min.X) / j.cellW))
		y1 := int(math.Floor((bb.Max.Y - j.bounds.Min.Y) / j.cellH))
		x1 = min(x1, j.res-1)
		y1 = min(y1, j.res-1)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				for _, pi := range j.buckets[y*j.res+x] {
					p := j.ps.Pts[pi]
					if rg.ContainsPoint(p) {
						a.add(ri, j.ps.weight(int(pi)))
					}
				}
			}
		}
	}
	return res, nil
}
