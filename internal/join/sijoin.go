package join

import (
	"distbound/internal/act"
	"distbound/internal/geom"
	"distbound/internal/raster"
	"distbound/internal/sfc"
)

// SIJoiner models Google S2ShapeIndex as characterized in §5.1: like ACT it
// covers regions with hierarchical raster cells, but the cover is budgeted
// (not distance-bounded) and the system "does not support approximate
// evaluation" — so points falling into partial (boundary) cells still pay an
// exact PIP test. Interior-cell hits skip refinement, which is why SI beats
// the plain R*-tree but loses to ACT's refinement-free join.
type SIJoiner struct {
	interior *act.CompactTrie
	boundary *act.CompactTrie
	regions  []geom.Region
	domain   sfc.Domain
	curve    sfc.Curve
	cells    int
}

// DefaultSICells is the per-region cover budget, sized so that the SI index
// is orders of magnitude smaller than ACT's (1.2 MB vs 143 MB in the
// paper's Neighborhood accounting).
const DefaultSICells = 32

// NewSIJoiner builds budgeted covers (maxCells per region; ≤ 0 selects
// DefaultSICells) and indexes interior and boundary cells separately.
func NewSIJoiner(regions []geom.Region, d sfc.Domain, curve sfc.Curve, maxCells int) (*SIJoiner, error) {
	if maxCells <= 0 {
		maxCells = DefaultSICells
	}
	interior, err := act.New(0)
	if err != nil {
		return nil, err
	}
	boundary, err := act.New(0)
	if err != nil {
		return nil, err
	}
	j := &SIJoiner{regions: regions, domain: d, curve: curve}
	for ri, rg := range regions {
		a := raster.CoverBudget(rg, d, curve, maxCells)
		interior.InsertCells(a.Interior, int32(ri))
		boundary.InsertCells(a.Boundary, int32(ri))
		j.cells += a.NumCells()
	}
	j.interior = interior.Compact()
	j.boundary = boundary.Compact()
	return j, nil
}

// NumCells returns the total number of cover cells.
func (j *SIJoiner) NumCells() int { return j.cells }

// MemoryBytes returns the footprint of both tries.
func (j *SIJoiner) MemoryBytes() int { return j.interior.MemoryBytes() + j.boundary.MemoryBytes() }

// Aggregate runs the exact join: interior hits are accepted directly,
// boundary hits are refined with PIP.
func (j *SIJoiner) Aggregate(ps PointSet, agg Agg) (Result, error) {
	if err := ps.validate(agg); err != nil {
		return Result{}, err
	}
	res := newResult(agg, len(j.regions))
	a := res.acc()
	buf := make([]int32, 0, 4)
	for i, p := range ps.Pts {
		pos, ok := j.domain.LeafPos(j.curve, p)
		if !ok {
			continue
		}
		w := ps.weight(i)
		buf = j.interior.LookupAppend(pos, buf[:0])
		for _, v := range buf {
			a.add(int(v), w)
		}
		buf = j.boundary.LookupAppend(pos, buf[:0])
		for _, v := range buf {
			// Refinement: SI does not support approximate evaluation, so
			// boundary hits pay the exact PIP test.
			if j.regions[v].ContainsPoint(p) {
				a.add(int(v), w)
			}
		}
	}
	return res, nil
}
