package raster

import (
	"context"

	"distbound/internal/geom"
	"distbound/internal/pool"
	"distbound/internal/sfc"
)

// splitLevel is the level whose cells are the set descent's subtree tasks:
// up to 256 of them, enough for a dynamic pool to balance a region set whose
// boundary crowds into a few subtrees.
const splitLevel = 4

// Cover is one owner's conservative cover as merged leaf ranges, held as the
// pieces the set descent's subtrees emitted, in ascending curve order. Each
// piece is coalesced within itself, but a range may continue across the seam
// into the next piece; a reader coalesces Hi+1 == Lo there.
type Cover [][]PosRange

// CoverRanges runs the set descent over regions at maxLevel in Conservative
// mode and returns their covers. With kinds false owner r is region r; with
// kinds true region r's interior cells go to owner 2r and its boundary cells
// to owner 2r+1, so a range never mixes the two kinds.
//
// The walk above splitLevel runs inline and records, in curve order, the
// cells it emits and the subtrees below it as tasks; workers (≤ 0 selects
// GOMAXPROCS) take the subtrees from a dynamic pool, and each task's ranges
// are grouped by owner into one exact-size array, so the ranges are held
// once. The result does not depend on the worker count. Canceling ctx
// abandons the descent and returns ctx.Err().
func CoverRanges(ctx context.Context, regions []geom.Region, d sfc.Domain, curve sfc.Curve, maxLevel int, kinds bool, workers int) ([]Cover, error) {
	cl := newClassifier(regions)
	owners := len(regions)
	if kinds {
		owners *= 2
	}
	owner := func(r int32, interior bool) int32 {
		switch {
		case !kinds:
			return r
		case interior:
			return 2 * r
		}
		return 2*r + 1
	}

	var top *walker
	top = newWalker(cl, d, curve, maxLevel, Conservative, func(r int32, id sfc.CellID, interior bool) {
		lo, hi := id.LeafPosRange()
		top.tasks = append(top.tasks, task{done: []piece{{owner(r, interior), []PosRange{{lo, hi}}}}})
	})
	top.ctx, top.spawn = ctx, min(splitLevel, maxLevel)
	if root := sfc.FromPosLevel(0, 0); top.spawn == 0 {
		top.tasks = []task{{id: root, p: cl.root()}}
	} else {
		top.visit(root, 0, 0, 0, 0, cl.root())
	}
	if top.err != nil {
		return nil, top.err
	}

	done := make([][]piece, len(top.tasks))
	workers = pool.Workers(workers, len(top.tasks))
	sinks := make([]*rangeSink, workers)
	err := pool.RunCtx(ctx, len(top.tasks), workers, func(wi, ti int) error {
		t := &top.tasks[ti]
		if t.p == nil {
			done[ti] = t.done
			return nil
		}
		s := sinks[wi]
		if s == nil {
			s = newRangeSink(owners)
			s.w = newWalker(cl, d, curve, maxLevel, Conservative, func(r int32, id sfc.CellID, interior bool) {
				s.add(owner(r, interior), id)
			})
			s.w.ctx = ctx
			sinks[wi] = s
		}
		s.w.visit(t.id, t.level, t.x, t.y, t.st, t.p)
		done[ti] = s.flush()
		return s.w.err
	})
	if err != nil {
		return nil, err
	}
	covers := make([]Cover, owners)
	for _, ps := range done {
		for _, p := range ps {
			covers[p.owner] = append(covers[p.owner], p.ranges)
		}
	}
	return covers, nil
}

// piece is one owner's ranges from one task.
type piece struct {
	owner  int32
	ranges []PosRange
}

// rangeSink is one worker's range sink: the current task's ranges in the
// order they arrive, each coalesced onto its owner's last one.
type rangeSink struct {
	w       *walker
	buf     []ownedRange
	last    []int32 // per owner: its last range's index in buf, -1 before its first
	n       []int32 // per owner: its ranges in buf
	touched []int32 // the owners with ranges in buf, in first-arrival order
}

type ownedRange struct {
	owner int32
	r     PosRange
}

func newRangeSink(owners int) *rangeSink {
	s := &rangeSink{last: make([]int32, owners), n: make([]int32, owners)}
	for o := range s.last {
		s.last[o] = -1
	}
	return s
}

func (s *rangeSink) add(o int32, id sfc.CellID) {
	lo, hi := id.LeafPosRange()
	if j := s.last[o]; j >= 0 && lo == s.buf[j].r.Hi+1 {
		s.buf[j].r.Hi = hi
		return
	}
	if s.last[o] < 0 {
		s.touched = append(s.touched, o)
	}
	s.last[o] = int32(len(s.buf))
	s.n[o]++
	s.buf = append(s.buf, ownedRange{o, PosRange{lo, hi}})
}

// flush hands over the task's ranges grouped by owner in one exact-size
// array, a piece per owner, and empties the sink.
func (s *rangeSink) flush() []piece {
	all := make([]PosRange, len(s.buf))
	ps := make([]piece, len(s.touched))
	next := 0
	for i, o := range s.touched {
		ps[i] = piece{o, all[next : next+int(s.n[o]) : next+int(s.n[o])]}
		s.last[o], s.n[o] = -1, int32(next)
		next += len(ps[i].ranges)
	}
	for _, e := range s.buf {
		all[s.n[e.owner]] = e.r
		s.n[e.owner]++
	}
	for _, o := range s.touched {
		s.n[o] = 0
	}
	s.buf, s.touched = s.buf[:0], s.touched[:0]
	return ps
}
