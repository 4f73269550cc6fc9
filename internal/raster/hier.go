package raster

import (
	"container/heap"
	"fmt"
	"slices"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// Hierarchical computes the hierarchical raster (HR) approximation of a
// region satisfying the distance bound eps (Figure 1(c), §2.2): interior
// cells are emitted as coarse as possible, and boundary cells are refined
// until their diagonal is at most eps, guaranteeing d_H(region, cells) ≤ eps
// for Conservative mode.
//
// The returned approximation's boundary cells all sit at the level
// Domain.LevelForBound(eps). An error is returned when eps is so small that
// even MaxLevel cells cannot honor it.
func Hierarchical(rg geom.Region, d sfc.Domain, curve sfc.Curve, eps float64, mode Mode) (*Approximation, error) {
	level, err := boundLevel(d, eps)
	if err != nil {
		return nil, err
	}
	return HierarchicalAtLevel(rg, d, curve, level, mode), nil
}

// HierarchicalRanges returns Hierarchical(rg, d, curve, eps, mode).Ranges()
// without the cell lists: the descent's cells are coalesced into leaf ranges
// as they arrive, so memory follows the range count, not the cell count.
func HierarchicalRanges(rg geom.Region, d sfc.Domain, curve sfc.Curve, eps float64, mode Mode) ([]PosRange, error) {
	level, err := boundLevel(d, eps)
	if err != nil {
		return nil, err
	}
	return rangesAtLevel(rg, d, curve, level, mode), nil
}

// boundLevel is the level whose cells honor the distance bound eps.
func boundLevel(d sfc.Domain, eps float64) (int, error) {
	level := d.LevelForBound(eps)
	if eps > 0 && d.CellDiagonal(level) > eps {
		return 0, fmt.Errorf("raster: bound %g m needs cells finer than MaxLevel (diagonal %g m)",
			eps, d.CellDiagonal(sfc.MaxLevel))
	}
	return level, nil
}

// HierarchicalAtLevel is Hierarchical with the refinement level given
// directly instead of derived from a distance bound.
func HierarchicalAtLevel(rg geom.Region, d sfc.Domain, curve sfc.Curve, maxLevel int, mode Mode) *Approximation {
	a := &Approximation{Domain: d, Curve: curve}
	descend(rg, d, curve, maxLevel, mode, func(id sfc.CellID, interior bool) {
		if interior {
			a.Interior = append(a.Interior, id)
		} else {
			a.Boundary = append(a.Boundary, id)
		}
	})
	return a
}

// rangesAtLevel is HierarchicalRanges at a given level. The descent emits
// disjoint cells in ascending curve order, so a cell either extends the last
// range or starts a new one.
func rangesAtLevel(rg geom.Region, d sfc.Domain, curve sfc.Curve, maxLevel int, mode Mode) []PosRange {
	var out []PosRange
	descend(rg, d, curve, maxLevel, mode, func(id sfc.CellID, _ bool) {
		out = appendCell(out, id)
	})
	return out
}

// KindRangesAtLevel is the conservative range sink that keeps the descent's
// interior flag: interior and boundary cells coalesce into two separate
// ascending range lists, so a range never mixes the two kinds. Every point of
// an interior range's cells lies in the region; a boundary range's may not.
func KindRangesAtLevel(rg geom.Region, d sfc.Domain, curve sfc.Curve, maxLevel int) (interior, boundary []PosRange) {
	descend(rg, d, curve, maxLevel, Conservative, func(id sfc.CellID, in bool) {
		if in {
			interior = appendCell(interior, id)
		} else {
			boundary = appendCell(boundary, id)
		}
	})
	return interior, boundary
}

// appendCell coalesces a cell arriving in ascending curve order into out: it
// extends the last range when adjacent, else starts a new one.
func appendCell(out []PosRange, id sfc.CellID) []PosRange {
	lo, hi := id.LeafPosRange()
	if n := len(out); n > 0 && lo == out[n-1].Hi+1 {
		out[n-1].Hi = hi
		return out
	}
	return append(out, PosRange{lo, hi})
}

// descend is the one depth-first descent the package doc describes: it hands
// every cell of the approximation to emit in ascending curve order, flagged
// interior or boundary.
func descend(rg geom.Region, d sfc.Domain, curve sfc.Curve, maxLevel int, mode Mode, emit func(id sfc.CellID, interior bool)) {
	cl := newClassifier(rg)
	n := len(cl.edges)
	blocks := make([]int32, (maxLevel+2)*n)

	var visit func(id sfc.CellID, level int, x, y uint32, st uint8, cand []int32)
	visit = func(id sfc.CellID, level int, x, y uint32, st uint8, cand []int32) {
		rect := d.CellRect(x, y, level)
		rel, sub := cl.relate(rect, cand, blocks[(level+1)*n:(level+1)*n:(level+2)*n])
		switch rel {
		case geom.RectInside:
			emit(id, true)
		case geom.RectPartial:
			if level >= maxLevel {
				if mode == Centroid && !cl.contains(rect.Center()) {
					return
				}
				emit(id, false)
				return
			}
			for digit, ch := range id.Children() {
				dx, dy, next := curve.Step(st, digit)
				visit(ch, level+1, x<<1|dx, y<<1|dy, next, sub)
			}
		}
	}
	visit(sfc.FromPosLevel(0, 0), 0, 0, 0, 0, cl.rootCand(blocks[:0]))
}

// Uniform computes the uniform raster (UR) approximation of a region at a
// fixed grid level (Figure 1(b)). All cells have the same size, so the
// approximation satisfies d_H ≤ cell diagonal = Domain.CellDiagonal(level).
//
// It is HierarchicalAtLevel's cell set written out at the leaf level: the
// boundary cells already sit at level, and a coarser interior cell is an
// aligned block of 4^(level−l) level cells at consecutive curve positions —
// exactly the same set, no additions, no gaps — so the two approximations
// cover identical Ranges. The blocks are disjoint and ascending, so Interior
// stays in curve order. Cells are closed, as everywhere else (see the package
// doc): a region edge on a grid line makes boundary cells of both sides.
func Uniform(rg geom.Region, d sfc.Domain, curve sfc.Curve, level int, mode Mode) *Approximation {
	a := HierarchicalAtLevel(rg, d, curve, level, mode)
	n := 0
	for _, id := range a.Interior {
		n += 1 << (2 * (level - id.Level()))
	}
	cells := make([]sfc.CellID, 0, n)
	for _, id := range a.Interior {
		shift := 2 * (level - id.Level())
		first := id.Pos() << shift
		for k := range uint64(1) << shift {
			cells = append(cells, sfc.FromPosLevel(first+k, level))
		}
	}
	a.Interior = cells
	return a
}

// coverItem is a priority-queue entry for budgeted covering.
type coverItem struct {
	id   sfc.CellID
	cand []int32
}

// coverQueue orders partial cells coarsest-first so the budget is spent
// refining the largest remaining cells.
type coverQueue []coverItem

func (q coverQueue) Len() int           { return len(q) }
func (q coverQueue) Less(i, j int) bool { return q[i].id.Level() < q[j].id.Level() }
func (q coverQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *coverQueue) Push(x any)        { *q = append(*q, x.(coverItem)) }
func (q *coverQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// CoverBudget computes a hierarchical cover of the region using at most
// maxCells cells: the precision knob of Figure 4, where query polygons are
// approximated with 32, 128 or 512 cells. The cover is conservative (it
// contains the region); its achieved distance bound is reported by
// MaxCellDiagonal and shrinks as the budget grows.
//
// The refinement strategy follows the standard region-coverer approach:
// repeatedly split the coarsest partial cell while the expansion still fits
// in the budget.
func CoverBudget(rg geom.Region, d sfc.Domain, curve sfc.Curve, maxCells int) *Approximation {
	if maxCells < 1 {
		maxCells = 1
	}
	a := &Approximation{Domain: d, Curve: curve}
	cl := newClassifier(rg)

	q := &coverQueue{}
	push := func(id sfc.CellID, cand []int32) bool {
		rel, sub := cl.relate(d.CellIDRect(curve, id), cand, nil)
		switch rel {
		case geom.RectInside:
			a.Interior = append(a.Interior, id)
			return true
		case geom.RectPartial:
			heap.Push(q, coverItem{id: id, cand: sub})
			return true
		}
		return false
	}
	push(sfc.FromPosLevel(0, 0), cl.rootCand(nil))

	for q.Len() > 0 {
		// Splitting one cell replaces it with up to 4 entries; stop when the
		// worst case would blow the budget or the cell cannot be refined.
		if a.NumCells()+q.Len()+3 > maxCells || (*q)[0].id.Level() >= sfc.MaxLevel {
			break
		}
		it := heap.Pop(q).(coverItem)
		for _, ch := range it.id.Children() {
			push(ch, it.cand)
		}
	}
	// Remaining partial cells are emitted as boundary cells.
	for _, it := range *q {
		a.Boundary = append(a.Boundary, it.id)
	}
	slices.Sort(a.Interior)
	slices.Sort(a.Boundary)
	return a
}
