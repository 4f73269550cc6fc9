package raster

import (
	"container/heap"
	"context"
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
// BoundLevel(d, eps). An error is returned when eps is so small that even
// MaxLevel cells cannot honor it.
func Hierarchical(rg geom.Region, d sfc.Domain, curve sfc.Curve, eps float64, mode Mode) (*Approximation, error) {
	level, err := BoundLevel(d, eps)
	if err != nil {
		return nil, err
	}
	return HierarchicalAtLevel(rg, d, curve, level, mode), nil
}

// BoundLevel is the level whose cells honor the distance bound eps (MaxLevel
// for eps ≤ 0) — the one place a bound becomes a level, the key of every
// cover and cached answer. A positive eps finer than the leaf cell is refused.
func BoundLevel(d sfc.Domain, eps float64) (int, error) {
	level := d.LevelForBound(eps)
	if eps > 0 && d.CellDiagonal(level) > eps {
		return 0, &BoundTooFineError{Bound: eps, Floor: d.CellDiagonal(sfc.MaxLevel)}
	}
	return level, nil
}

// BoundTooFineError refuses a positive bound finer than the leaf cell: no
// cover can meet it, so it is the caller's error, raised before any build.
// Floor is the leaf cell's diagonal, the finest bound a cover serves.
type BoundTooFineError struct{ Bound, Floor float64 }

func (e *BoundTooFineError) Error() string {
	return fmt.Sprintf("distbound: bound %g m is finer than the leaf cell's diagonal %g m, the finest bound a cover can meet", e.Bound, e.Floor)
}

// HierarchicalAtLevel is Hierarchical with the refinement level given
// directly instead of derived from a distance bound: the set descent over a
// one-region set, its cells appended to Interior and Boundary.
func HierarchicalAtLevel(rg geom.Region, d sfc.Domain, curve sfc.Curve, maxLevel int, mode Mode) *Approximation {
	a := &Approximation{Domain: d, Curve: curve}
	cl := newClassifier([]geom.Region{rg})
	w := newWalker(cl, d, curve, maxLevel, mode, func(_ int32, id sfc.CellID, interior bool) {
		if interior {
			a.Interior = append(a.Interior, id)
		} else {
			a.Boundary = append(a.Boundary, id)
		}
	})
	w.visit(sfc.FromPosLevel(0, 0), 0, 0, 0, 0, cl.root())
	return a
}

// frame is one cell's classification, which its children read: the segments
// crossing it and the regions partial in it.
type frame struct {
	segs []int32
	part []partial
}

// partial is a region partial in a cell: the one segment crossing the cell
// when exactly one does, else -1, and the side memo — the locator's answer on
// each side of that segment's line (0 unknown, 1 inside, 2 outside).
//
// A region crossed by exactly one segment has that segment as a chord of the
// cell: the rest of its boundary stays outside, so on either side of the
// chord's line the region is uniformly inside or outside. A child no
// segment crosses lies on one side, at least half its side away from the
// line, so one locator test per side decides every such child — and every
// such descendant while the chord stays the region's only segment, since a
// descendant's sides lie on the cell's.
type partial struct {
	r, one int32
	memo   [2]int8
}

// root is the frame above the root cell: every segment, every region.
func (cl *classifier) root() *frame {
	f := &frame{segs: cl.rootCand(nil), part: make([]partial, len(cl.regions))}
	for r := range f.part {
		f.part[r] = partial{r: int32(r), one: -1}
	}
	return f
}

// walker is the set descent on one goroutine: the classifier it reads, the
// grid, the sink, and scratch reused by every cell.
type walker struct {
	cl       *classifier
	d        sfc.Domain
	curve    sfc.Curve
	maxLevel int
	mode     Mode
	emit     func(r int32, id sfc.CellID, interior bool)

	depth []frame      // depth[l]: the frame of the cell being visited at level l
	marks []regionMark // per region
	stamp uint64       // one per visited cell

	spawn int    // the split level: visit records its cells as tasks instead of visiting them
	tasks []task // recorded by the top walk, in curve order
	ctx   context.Context
	err   error
}

// regionMark counts the segments of one region crossing the current cell:
// cnt of them, the last one last, valid while stamp is the walker's.
type regionMark struct {
	stamp     uint64
	cnt, last int32
}

// task is a unit of the set descent in curve order: a subtree — a cell at
// the split level and its parent's frame — or, with p nil, a cell the top
// walk emitted above that level.
type task struct {
	id    sfc.CellID
	x, y  uint32
	st    uint8
	level int
	p     *frame
	done  []piece
}

func newWalker(cl *classifier, d sfc.Domain, curve sfc.Curve, maxLevel int, mode Mode, emit func(int32, sfc.CellID, bool)) *walker {
	return &walker{cl: cl, d: d, curve: curve, maxLevel: maxLevel, mode: mode, emit: emit,
		depth: make([]frame, maxLevel+1), marks: make([]regionMark, len(cl.regions)), spawn: -1}
}

// visit is the one depth-first descent the package doc describes: it
// classifies the cell for every region partial in its parent p, emits the
// cells each region's approximation takes in ascending curve order, and
// descends while any region is partial.
func (w *walker) visit(id sfc.CellID, level int, x, y uint32, st uint8, p *frame) {
	if w.err != nil {
		return
	}
	cl := w.cl
	w.stamp++
	if w.ctx != nil && w.stamp%1024 == 1 {
		if w.err = w.ctx.Err(); w.err != nil {
			return
		}
	}
	rect := w.d.CellRect(x, y, level)
	f := &w.depth[level]
	f.segs = reserve(f.segs, len(p.segs))
	for _, si := range p.segs {
		if rect.Intersects(cl.bounds[si]) && rect.IntersectsSegment(cl.segs[si]) {
			f.segs = append(f.segs, si)
			for _, r := range cl.owners[cl.ownOff[si]:cl.ownOff[si+1]] {
				m := &w.marks[r]
				if m.stamp != w.stamp {
					m.stamp, m.cnt = w.stamp, 0
				}
				m.cnt++
				m.last = si
			}
		}
	}
	f.part = reserve(f.part, len(p.part))
	for i := range p.part {
		r := p.part[i].r
		m := w.marks[r]
		crossed := m.stamp == w.stamp
		var rel geom.RectRelation
		switch {
		case cl.generic[r]:
			rel = cl.regions[r].RelateRect(rect)
		case crossed:
			rel = geom.RectPartial
		case w.inside(&p.part[i], rect.Center()):
			rel = geom.RectInside
		default:
			rel = geom.RectOutside
		}
		switch {
		case rel == geom.RectInside:
			w.emit(r, id, true)
		case rel != geom.RectPartial:
		case level >= w.maxLevel:
			if w.mode == Conservative || cl.contains[r](rect.Center()) {
				w.emit(r, id, false)
			}
		case crossed && m.cnt == 1:
			// A chord of the parent can only stay the chord here, and its
			// sides here lie on its sides there: the parent's answers carry
			// over (a parent with no chord has none).
			f.part = append(f.part, partial{r, m.last, p.part[i].memo})
		default:
			f.part = append(f.part, partial{r: r, one: -1})
		}
	}
	if len(f.part) == 0 {
		return
	}
	if level+1 == w.spawn {
		// The children are subtree tasks, each reading its own copy of this
		// frame: the next cell at this level overwrites it, and a task writes
		// its side memo.
		segs := slices.Clone(f.segs)
		for digit, ch := range id.Children() {
			dx, dy, next := w.curve.Step(st, digit)
			w.tasks = append(w.tasks, task{id: ch, x: x<<1 | dx, y: y<<1 | dy, st: next, level: level + 1, p: &frame{segs, slices.Clone(f.part)}})
		}
		return
	}
	for digit, ch := range id.Children() {
		dx, dy, next := w.curve.Step(st, digit)
		w.visit(ch, level+1, x<<1|dx, y<<1|dy, next, f)
	}
}

// inside decides a region partial in the parent and crossed by none of the
// parent's segments here by the locator test of the cell's center c, asked
// once per side of the region's chord when the parent has one.
func (w *walker) inside(pt *partial, c geom.Point) bool {
	contains := w.cl.contains[pt.r]
	if pt.one < 0 {
		return contains(c)
	}
	side := w.cl.segs[pt.one].Side(c)
	if side == 0 {
		return contains(c)
	}
	m := &pt.memo[(side+1)/2]
	if *m == 0 {
		*m = 2
		if contains(c) {
			*m = 1
		}
	}
	return *m == 1
}

// reserve returns s emptied, with room for n elements.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, max(n, 2*cap(s)))
	}
	return s[:0]
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
	cl := newClassifier([]geom.Region{rg})

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
