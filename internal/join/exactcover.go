package join

import (
	"context"
	"math"
	"slices"

	"distbound/internal/geom"
	"distbound/internal/pool"
	"distbound/internal/raster"
	"distbound/internal/sfc"
)

// ExactCover answers the ad-hoc join exactly with the approximation as its
// filter: only points in boundary cells pay an exact test. Each region is
// rasterized once at a coarse level L₀ with the descent's interior flag kept
// (raster.KindRangesAtLevel), and the two kinds go into one cover table
// (coverplan.go) as pseudo-regions — region r's interior ranges as 2r, its
// boundary ranges as 2r+1 — so the table, its radix index and its stab lists
// are the cover sets' own. A point's stab list then names, in region order,
// the regions whose interior holds it (hits, no test) and those whose boundary
// cells hold it (refined with the region's point locator); a point in no list
// lies in no region.
//
// That needs the point to lie where its key says. Its key names the leaf
// cell Domain.Coord rounded it into, and a point within rounding of a leaf
// edge may lie just across it, so a point outside its leaf's closed rect —
// the far edges pulled in by a few ulps, see leafHolds — is tested against
// every region instead. The fold visits points in pointChunkFold's chunks and
// order and adds each to its regions in ascending order, as the R*-tree join
// does: every aggregate is bit-identical to RStarJoiner.AggregateMulti, SUM
// included, and neither depends on the worker count.
type ExactCover struct {
	domain sfc.Domain
	curve  sfc.Curve
	plan   *coverPlan
	refine []refiner
	within geom.Rect // the regions' common MBR: a point outside it is in none
	margin float64   // see leafHolds
	shift  uint      // MaxLevel − L₀: every boundary key is a multiple of 4^shift
}

// exactCellsAcross is how many level-L₀ cells span the median region's MBR.
const exactCellsAcross = 16

// exactCellBudget caps L₀ by cost: it is never finer than the last level at
// which the regions' MBR half-perimeters, summed, span this many cells. A
// region's boundary cells at a level number about twice its half-perimeter in
// cells (for a convex region), so the cap bounds the descent's work and the
// table's size whatever the median says — tiny regions beside a large one
// would otherwise have the large one's edge traced at the leaf level. The
// bench partition's half-perimeters span 8,192 cells at its level 8, so the
// cap sits two levels finer.
const exactCellBudget = 1 << 15

// exactLevel returns the exact cover's level L₀ over the domain: the coarsest
// level at which the median region's MBR (its longer side) spans at least
// exactCellsAcross cells, but no finer than exactCellBudget allows. It depends
// on the regions alone — the bench partition of 16×16 regions gets level 8 —
// and is coarse enough that the interior/boundary split costs the table
// little.
func exactLevel(regions []geom.Region, d sfc.Domain) int {
	if len(regions) == 0 {
		return 0
	}
	sides := make([]float64, len(regions))
	halfPerim := 0.0
	for i, rg := range regions {
		b := rg.Bounds()
		sides[i] = max(b.Width(), b.Height())
		if hp := b.Width() + b.Height(); hp > 0 {
			halfPerim += hp
		}
	}
	slices.Sort(sides)
	median := sides[len(sides)/2]
	level := 0
	for level < sfc.MaxLevel && median < exactCellsAcross*d.CellSide(level) &&
		halfPerim <= exactCellBudget*d.CellSide(level+1) {
		level++
	}
	return level
}

// NewExactCoverCtx builds the exact cover of the regions over the domain and
// curve at exactLevel, fanning the per-region descents across workers (≤ 0
// selects GOMAXPROCS). Canceling ctx abandons the build between regions and
// returns ctx.Err().
func NewExactCoverCtx(ctx context.Context, regions []geom.Region, d sfc.Domain, c sfc.Curve, workers int) (*ExactCover, error) {
	level := exactLevel(regions, d)
	covers := make([][]raster.PosRange, 2*len(regions))
	err := pool.RunCtx(ctx, len(regions), pool.Workers(workers, len(regions)), func(_, ri int) error {
		covers[2*ri], covers[2*ri+1] = raster.KindRangesAtLevel(regions[ri], d, c, level)
		return nil
	})
	if err != nil {
		return nil, err
	}
	ec := &ExactCover{domain: d, curve: c, plan: buildCoverPlan(covers), refine: refiners(regions),
		within: geom.EmptyRect(), shift: uint(sfc.MaxLevel - level)}
	for _, rg := range regions {
		ec.within = ec.within.Union(rg.Bounds())
	}
	// Every value CellRect computes is below m in magnitude, so each of the
	// three roundings in a far edge errs by at most 2^-53·m: two cells' far
	// edges on one grid line differ by at most 3·2^-52·m, under the margin.
	m := max(math.Abs(d.Origin.X), math.Abs(d.Origin.Y)) + d.Size
	ec.margin = m * 0x1p-50
	return ec, nil
}

// NumRegions returns how many regions the cover answers for — the length of
// every result column.
func (ec *ExactCover) NumRegions() int { return len(ec.refine) }

// NumRanges returns the table's merged ranges, interior and boundary.
func (ec *ExactCover) NumRanges() int { return len(ec.plan.ranges) }

// MemoryBytes returns the cover table's footprint plus the point locators'.
func (ec *ExactCover) MemoryBytes() int { return ec.plan.memoryBytes() + locatorBytes(ec.refine) }

// AggregateMulti joins a streamed point set exactly: each point's stab list
// filters, and only points in boundary cells are refined. Every aggregate is
// bit-identical to RStarJoiner.AggregateMulti.
func (ec *ExactCover) AggregateMulti(ctx context.Context, ps PointSet, aggs []Agg, workers int) ([]Result, error) {
	if err := ps.validateAggs(aggs); err != nil {
		return nil, err
	}
	return pointChunkFold(ctx, len(ps.Pts), workers, ec.NumRegions(), aggs, func(lo, hi int, part *acc, _ *[]int32) {
		for i := lo; i < hi; i++ {
			ec.fold(ps.Pts[i], ps.weight(i), part)
		}
	})
}

// leafHolds reports whether p lies in the closed rect of leaf cell (x, y) with
// its far edges pulled in by the margin. Then p lies in the closed rect of
// every ancestor cell as the descent computed it: a leaf's near edges are
// never below its ancestor's (the same products, rounded monotonically), and
// its far edges, each three roundings from the exact value, differ from the
// ancestor's by less than the margin. So the descent's classification of
// that ancestor — inside, outside or boundary — holds for p.
//
//distbound:noalloc
func (ec *ExactCover) leafHolds(p geom.Point, x, y uint32) bool {
	r := ec.domain.CellRect(x, y, sfc.MaxLevel)
	return r.Min.X <= p.X && p.X <= r.Max.X-ec.margin && r.Min.Y <= p.Y && p.Y <= r.Max.Y-ec.margin
}

// fold adds p's weight to every region holding it, in region order.
func (ec *ExactCover) fold(p geom.Point, w float64, part *acc) {
	x, y, ok := ec.domain.Coord(p, sfc.MaxLevel)
	if !ok || !ec.leafHolds(p, x, y) {
		if ec.within.ContainsPoint(p) {
			for r, rf := range ec.refine {
				if rf.ContainsPoint(p) {
					part.add(r, w)
				}
			}
		}
		return
	}
	// The table's cells are no finer than L₀, so every boundary key is a
	// multiple of 4^shift and the point's level-L₀ cell finds its segment: an
	// encode of L₀ levels, not MaxLevel.
	key := ec.curve.Encode(sfc.MaxLevel-int(ec.shift), x>>ec.shift, y>>ec.shift) << (2 * ec.shift)
	for _, e := range ec.plan.stab(key) {
		r := int(e >> 1)
		if e&1 == 0 || ec.refine[r].ContainsPoint(p) {
			part.add(r, w)
		}
	}
}
