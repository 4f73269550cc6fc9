package raster

import (
	"context"
	"errors"
	"testing"

	"distbound/internal/geom"
	"distbound/internal/sfc"
)

// countingCtx is a context that counts its Err calls and reports Canceled
// from call cancelAt on (never, for cancelAt 0). Its Done channel is nil, so
// only the descent's own polls reach it.
type countingCtx struct {
	context.Context
	calls, cancelAt int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.cancelAt > 0 && c.calls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// visitedCells counts the cells a descent of one region to maxLevel visits:
// the root, and the four children of every partial cell above maxLevel.
func visitedCells(rg geom.Region, d sfc.Domain, curve sfc.Curve, maxLevel int) int {
	cl := newPerRegionClassifier(rg)
	n := 0
	var visit func(id sfc.CellID, level int, x, y uint32, st uint8, cand []int32)
	visit = func(id sfc.CellID, level int, x, y uint32, st uint8, cand []int32) {
		n++
		rel, sub := cl.relate(d.CellRect(x, y, level), cand, nil)
		if rel != geom.RectPartial || level >= maxLevel {
			return
		}
		for digit, ch := range id.Children() {
			dx, dy, next := curve.Step(st, digit)
			visit(ch, level+1, x<<1|dx, y<<1|dy, next, sub)
		}
	}
	visit(sfc.FromPosLevel(0, 0), 0, 0, 0, 0, cl.rootCand(nil))
	return n
}

// TestCoverRangesPollsEveryChordCell: a cover build of one large triangle at
// a fine level, where nearly every cell lies below a chord cell, polls its
// context once per 1,024 cells visited — the walk above the split level and
// the one worker's walk each round up once — and a context canceled midway
// abandons the build with context.Canceled.
func TestCoverRangesPollsEveryChordCell(t *testing.T) {
	d := mustDomain(t, geom.Pt(0, 0), 1024)
	tri := geom.MustPolygon(geom.Ring{geom.Pt(100, 100), geom.Pt(900, 200), geom.Pt(400, 950)})
	const level = 14
	cells := visitedCells(tri, d, sfc.Hilbert{}, level)

	ctx := &countingCtx{Context: context.Background()}
	if _, err := CoverRanges(ctx, []geom.Region{tri}, d, sfc.Hilbert{}, level, false, 1); err != nil {
		t.Fatal(err)
	}
	if want := cells / 1024; ctx.calls < want || ctx.calls > want+2 {
		t.Fatalf("%d cells visited, %d polls: want %d to %d, one per 1,024 cells", cells, ctx.calls, want, want+2)
	}

	ctx = &countingCtx{Context: context.Background(), cancelAt: cells / 2048}
	covers, err := CoverRanges(ctx, []geom.Region{tri}, d, sfc.Hilbert{}, level, false, 1)
	if !errors.Is(err, context.Canceled) || covers != nil {
		t.Fatalf("canceled at poll %d of %d: covers %v, err %v; want nil, context.Canceled", ctx.cancelAt, cells/1024, covers != nil, err)
	}
}
