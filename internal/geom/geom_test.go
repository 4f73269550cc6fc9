package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointOps(t *testing.T) {
	p, q := Pt(1, 2), Pt(4, 6)
	if got := p.Add(q); !got.Eq(Pt(5, 8)) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); !got.Eq(Pt(3, 4)) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); !got.Eq(Pt(2, 4)) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dist(q); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
	if got := p.Dist2(q); got != 25 {
		t.Errorf("Dist2 = %v, want 25", got)
	}
	if got := p.Dot(q); got != 16 {
		t.Errorf("Dot = %v, want 16", got)
	}
	if got := p.Cross(q); got != -2 {
		t.Errorf("Cross = %v, want -2", got)
	}
}

func TestSegmentIntersects(t *testing.T) {
	cases := []struct {
		name string
		s, u Segment
		want bool
	}{
		{"crossing", Segment{Pt(0, 0), Pt(2, 2)}, Segment{Pt(0, 2), Pt(2, 0)}, true},
		{"parallel", Segment{Pt(0, 0), Pt(2, 0)}, Segment{Pt(0, 1), Pt(2, 1)}, false},
		{"touching endpoint", Segment{Pt(0, 0), Pt(1, 1)}, Segment{Pt(1, 1), Pt(2, 0)}, true},
		{"collinear overlap", Segment{Pt(0, 0), Pt(2, 0)}, Segment{Pt(1, 0), Pt(3, 0)}, true},
		{"collinear disjoint", Segment{Pt(0, 0), Pt(1, 0)}, Segment{Pt(2, 0), Pt(3, 0)}, false},
		{"T junction", Segment{Pt(0, 0), Pt(2, 0)}, Segment{Pt(1, 0), Pt(1, 1)}, true},
		{"near miss", Segment{Pt(0, 0), Pt(1, 0)}, Segment{Pt(0.5, 0.01), Pt(1, 1)}, false},
	}
	for _, c := range cases {
		if got := c.s.Intersects(c.u); got != c.want {
			t.Errorf("%s: Intersects = %v, want %v", c.name, got, c.want)
		}
		if got := c.u.Intersects(c.s); got != c.want {
			t.Errorf("%s (swapped): Intersects = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSegmentClosestPoint(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(10, 0)}
	cases := []struct {
		p, want Point
	}{
		{Pt(5, 3), Pt(5, 0)},
		{Pt(-2, 1), Pt(0, 0)},
		{Pt(12, -1), Pt(10, 0)},
	}
	for _, c := range cases {
		if got := s.ClosestPoint(c.p); !got.Eq(c.want) {
			t.Errorf("ClosestPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := s.DistToPoint(Pt(5, 3)); got != 3 {
		t.Errorf("DistToPoint = %v, want 3", got)
	}
	deg := Segment{Pt(1, 1), Pt(1, 1)}
	if got := deg.DistToPoint(Pt(4, 5)); got != 5 {
		t.Errorf("degenerate DistToPoint = %v, want 5", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{Pt(0, 0), Pt(4, 2)}
	if r.Width() != 4 || r.Height() != 2 || r.Area() != 8 {
		t.Errorf("dims wrong: %v", r)
	}
	if !r.Center().Eq(Pt(2, 1)) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.ContainsPoint(Pt(0, 0)) || !r.ContainsPoint(Pt(4, 2)) || r.ContainsPoint(Pt(4.01, 1)) {
		t.Error("ContainsPoint boundary semantics wrong")
	}
	if e := EmptyRect(); !e.IsEmpty() || e.Area() != 0 {
		t.Error("EmptyRect not empty")
	}
}

func TestRectSetOps(t *testing.T) {
	a := Rect{Pt(0, 0), Pt(2, 2)}
	b := Rect{Pt(1, 1), Pt(3, 3)}
	c := Rect{Pt(5, 5), Pt(6, 6)}
	if !a.Intersects(b) || a.Intersects(c) {
		t.Error("Intersects wrong")
	}
	got := a.Intersection(b)
	if got.Min != Pt(1, 1) || got.Max != Pt(2, 2) {
		t.Errorf("Intersection = %v", got)
	}
	if !a.Intersection(c).IsEmpty() {
		t.Error("disjoint intersection not empty")
	}
	u := a.Union(c)
	if u.Min != Pt(0, 0) || u.Max != Pt(6, 6) {
		t.Errorf("Union = %v", u)
	}
	if !u.ContainsRect(a) || !u.ContainsRect(c) || a.ContainsRect(u) {
		t.Error("ContainsRect wrong")
	}
	if eu := EmptyRect().Union(a); eu != a {
		t.Errorf("empty union = %v", eu)
	}
}

func TestRectDistToPoint(t *testing.T) {
	r := Rect{Pt(0, 0), Pt(2, 2)}
	cases := []struct {
		p    Point
		want float64
	}{
		{Pt(1, 1), 0},
		{Pt(2, 2), 0},
		{Pt(3, 1), 1},
		{Pt(1, -2), 2},
		{Pt(5, 6), 5},
	}
	for _, c := range cases {
		if got := r.DistToPoint(c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("DistToPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRectIntersectsSegment(t *testing.T) {
	r := Rect{Pt(0, 0), Pt(2, 2)}
	cases := []struct {
		s    Segment
		want bool
	}{
		{Segment{Pt(0.5, 0.5), Pt(1.5, 1.5)}, true}, // fully inside
		{Segment{Pt(-1, 1), Pt(3, 1)}, true},        // crossing through
		{Segment{Pt(-1, -1), Pt(-0.5, 3)}, false},   // left of rect
		{Segment{Pt(-1, 3), Pt(3, -1)}, true},       // diagonal across corner
		{Segment{Pt(2, -1), Pt(2, 3)}, true},        // along right edge
		{Segment{Pt(3, 3), Pt(4, 4)}, false},        // outside
	}
	for _, c := range cases {
		if got := r.IntersectsSegment(c.s); got != c.want {
			t.Errorf("IntersectsSegment(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

// unitSquare is a CCW square ring.
func unitSquare() Ring {
	return Ring{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}
}

func TestRingAreaCentroid(t *testing.T) {
	sq := unitSquare()
	if got := sq.SignedArea(); got != 1 {
		t.Errorf("SignedArea = %v, want 1 (CCW)", got)
	}
	if got := (Ring{Pt(0, 0), Pt(0, 1), Pt(1, 1), Pt(1, 0)}).SignedArea(); got != -1 {
		t.Errorf("reversed SignedArea = %v, want -1", got)
	}
	if got := sq.Area(); got != 1 {
		t.Errorf("Area = %v", got)
	}
	tri := Ring{Pt(0, 0), Pt(4, 0), Pt(0, 3)}
	if got := tri.Area(); got != 6 {
		t.Errorf("triangle Area = %v, want 6", got)
	}
}

func TestRingContainsPoint(t *testing.T) {
	sq := unitSquare()
	cases := []struct {
		p    Point
		want bool
	}{
		{Pt(0.5, 0.5), true},
		{Pt(0, 0), true},   // vertex
		{Pt(0.5, 0), true}, // edge
		{Pt(1, 0.5), true}, // right edge
		{Pt(1.0001, 0.5), false},
		{Pt(-0.1, 0.5), false},
		{Pt(0.5, 1.5), false},
	}
	for _, c := range cases {
		if got := sq.ContainsPoint(c.p); got != c.want {
			t.Errorf("ContainsPoint(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Concave ring (L shape).
	l := Ring{Pt(0, 0), Pt(2, 0), Pt(2, 1), Pt(1, 1), Pt(1, 2), Pt(0, 2)}
	if !l.ContainsPoint(Pt(0.5, 1.5)) {
		t.Error("L: inner point of vertical arm not contained")
	}
	if l.ContainsPoint(Pt(1.5, 1.5)) {
		t.Error("L: notch point wrongly contained")
	}
}

func TestPolygonWithHoles(t *testing.T) {
	outer := Ring{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}
	hole := Ring{Pt(4, 4), Pt(6, 4), Pt(6, 6), Pt(4, 6)}
	p := MustPolygon(outer, hole)
	if got := p.Area(); got != 96 {
		t.Errorf("Area = %v, want 96", got)
	}
	if got := p.NumVertices(); got != 8 {
		t.Errorf("NumVertices = %v, want 8", got)
	}
	if !p.ContainsPoint(Pt(1, 1)) {
		t.Error("point in solid part not contained")
	}
	if p.ContainsPoint(Pt(5, 5)) {
		t.Error("point in hole wrongly contained")
	}
	if !p.ContainsPoint(Pt(4, 5)) {
		t.Error("point on hole boundary should be contained")
	}
	if p.ContainsPoint(Pt(11, 5)) {
		t.Error("outside point contained")
	}
	if got := p.DistToPoint(Pt(5, 5)); math.Abs(got-1) > 1e-12 {
		t.Errorf("DistToPoint(hole center) = %v, want 1", got)
	}
	if got := p.DistToPoint(Pt(12, 5)); math.Abs(got-2) > 1e-12 {
		t.Errorf("DistToPoint(outside) = %v, want 2", got)
	}
}

func TestNewPolygonErrors(t *testing.T) {
	if _, err := NewPolygon(Ring{Pt(0, 0), Pt(1, 1)}); err != ErrDegenerateRing {
		t.Errorf("want ErrDegenerateRing, got %v", err)
	}
	if _, err := NewPolygon(unitSquare(), Ring{Pt(0, 0)}); err != ErrDegenerateRing {
		t.Errorf("degenerate hole: want ErrDegenerateRing, got %v", err)
	}
}

func TestRelateRect(t *testing.T) {
	outer := Ring{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}
	hole := Ring{Pt(4, 4), Pt(6, 4), Pt(6, 6), Pt(4, 6)}
	p := MustPolygon(outer, hole)
	cases := []struct {
		r    Rect
		want RectRelation
	}{
		{Rect{Pt(1, 1), Pt(2, 2)}, RectInside},
		{Rect{Pt(20, 20), Pt(21, 21)}, RectOutside},
		{Rect{Pt(-1, -1), Pt(1, 1)}, RectPartial},       // crosses outer boundary
		{Rect{Pt(4.5, 4.5), Pt(5.5, 5.5)}, RectOutside}, // inside the hole
		{Rect{Pt(3, 3), Pt(5, 5)}, RectPartial},         // crosses hole boundary
		{Rect{Pt(-5, -5), Pt(15, 15)}, RectPartial},     // contains whole polygon
	}
	for _, c := range cases {
		if got := p.RelateRect(c.r); got != c.want {
			t.Errorf("RelateRect(%v) = %v, want %v", c.r, got, c.want)
		}
	}
}

func TestMultiPolygon(t *testing.T) {
	a := MustPolygon(Ring{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)})
	b := MustPolygon(Ring{Pt(3, 0), Pt(4, 0), Pt(4, 1), Pt(3, 1)})
	m := NewMultiPolygon(a, b)
	if got := m.Area(); got != 2 {
		t.Errorf("Area = %v, want 2", got)
	}
	if !m.ContainsPoint(Pt(0.5, 0.5)) || !m.ContainsPoint(Pt(3.5, 0.5)) {
		t.Error("part containment failed")
	}
	if m.ContainsPoint(Pt(2, 0.5)) {
		t.Error("gap point contained")
	}
	if got := m.DistToPoint(Pt(2, 0.5)); math.Abs(got-1) > 1e-12 {
		t.Errorf("DistToPoint(gap) = %v, want 1", got)
	}
	if got := m.RelateRect(Rect{Pt(1.5, 0.2), Pt(2.5, 0.8)}); got != RectOutside {
		t.Errorf("gap rect relation = %v, want outside", got)
	}
	if got := m.RelateRect(Rect{Pt(0.2, 0.2), Pt(0.8, 0.8)}); got != RectInside {
		t.Errorf("inside rect relation = %v", got)
	}
	if got := m.RelateRect(Rect{Pt(0.5, 0.5), Pt(3.5, 0.5)}); got != RectPartial {
		t.Errorf("spanning rect relation = %v", got)
	}
}

// randomStarPolygon builds a random star-shaped polygon around a center: it
// is simple by construction, which makes it a safe generator for property
// tests.
func randomStarPolygon(rng *rand.Rand, center Point, rMin, rMax float64, n int) *Polygon {
	ring := make(Ring, n)
	for i := 0; i < n; i++ {
		ang := 2 * math.Pi * float64(i) / float64(n)
		r := rMin + rng.Float64()*(rMax-rMin)
		ring[i] = Pt(center.X+r*math.Cos(ang), center.Y+r*math.Sin(ang))
	}
	return MustPolygon(ring)
}

func TestPIPMatchesWindingOnRandomPolygons(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		p := randomStarPolygon(rng, Pt(0, 0), 2, 5, 3+rng.Intn(20))
		for i := 0; i < 200; i++ {
			pt := Pt(rng.Float64()*12-6, rng.Float64()*12-6)
			want := windingNumberContains(p.Outer, pt)
			got := p.ContainsPoint(pt)
			// Skip points too close to the boundary where the two methods may
			// legitimately disagree on inclusivity.
			if p.BoundaryDist(pt) < 1e-9 {
				continue
			}
			if got != want {
				t.Fatalf("trial %d: PIP mismatch at %v: crossing=%v winding=%v", trial, pt, got, want)
			}
		}
	}
}

// windingNumberContains is an independent point-in-polygon oracle.
func windingNumberContains(r Ring, p Point) bool {
	var wn int
	for i := range r {
		e := r.Edge(i)
		if e.A.Y <= p.Y {
			if e.B.Y > p.Y && orient(e.A, e.B, p) == counterclockwise {
				wn++
			}
		} else if e.B.Y <= p.Y && orient(e.A, e.B, p) == clockwise {
			wn--
		}
	}
	return wn != 0
}

func TestRectPropertyUnionContains(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		a := RectFromPoints(Pt(ax, ay), Pt(bx, by))
		b := RectFromPoints(Pt(cx, cy), Pt(dx, dy))
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRectPropertyIntersectionCommutes(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		a := RectFromPoints(Pt(ax, ay), Pt(bx, by))
		b := RectFromPoints(Pt(cx, cy), Pt(dx, dy))
		i1, i2 := a.Intersection(b), b.Intersection(a)
		if i1.IsEmpty() != i2.IsEmpty() {
			return false
		}
		return i1.IsEmpty() || i1 == i2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTranslateAndClone(t *testing.T) {
	p := MustPolygon(unitSquare(), Ring{Pt(0.25, 0.25), Pt(0.75, 0.25), Pt(0.75, 0.75), Pt(0.25, 0.75)})
	q := p.Translate(Pt(10, 20))
	if !q.ContainsPoint(Pt(10.1, 20.1)) {
		t.Error("translated polygon misses translated point")
	}
	if q.ContainsPoint(Pt(10.5, 20.5)) {
		t.Error("translated hole missing")
	}
}

// refRectIntersectsSegment is Rect.IntersectsSegment's four-sides definition:
// the rect holds an endpoint, or one of its sides Intersects s.
func refRectIntersectsSegment(r Rect, s Segment) bool {
	if r.ContainsPoint(s.A) || r.ContainsPoint(s.B) {
		return true
	}
	if !r.Intersects(s.Bounds()) {
		return false
	}
	for _, e := range r.Edges() {
		if s.Intersects(e) {
			return true
		}
	}
	return false
}

// FuzzRectIntersectsSegment holds the predicate the rasterizer spends most
// of its time in to its four-sides definition on every input: raw floats
// (NaN, ±Inf, inverted and degenerate rects included) and the same values
// snapped to a small lattice, where corner touches, collinear overlaps and
// sides lying on the segment's line actually occur.
func FuzzRectIntersectsSegment(f *testing.F) {
	f.Add(0.0, 0.0, 4.0, 4.0, -1.0, 2.0, 5.0, 2.0)    // straight through
	f.Add(0.0, 0.0, 4.0, 4.0, -2.0, 2.0, 2.0, 6.0)    // touches corner (0,4)
	f.Add(0.0, 0.0, 4.0, 4.0, -3.0, 4.0, 7.0, 4.0)    // along the top side's line
	f.Add(0.0, 0.0, 4.0, 4.0, 5.0, 4.0, 7.0, 4.0)     // collinear with it, apart
	f.Add(0.0, 0.0, 4.0, 4.0, 5.0, -1.0, 9.0, 9.0)    // bounds overlap, misses
	f.Add(0.0, 0.0, 4.0, 4.0, 1.0, 1.0, 2.0, 3.0)     // inside
	f.Add(0.0, 0.0, 0.0, 4.0, -1.0, 1.0, 1.0, 3.0)    // zero-width rect
	f.Add(4.0, 4.0, 0.0, 0.0, -1.0, 2.0, 5.0, 2.0)    // inverted rect
	f.Add(0.0, 0.0, 4.0, 4.0, -1.0, -1.0, -1.0, -1.0) // point segment
	// Cells of the benchmark's city domain (data.CityDomain: a 65,536 m
	// square at the origin) at the levels of ε 4, 8 and 16, where the
	// rasterizer asks this question of every polygon edge.
	for _, side := range []float64{2, 4, 8} {
		x0, y0 := 12345*side, 6789*side
		x1, y1 := x0+side, y0+side
		f.Add(x0, y0, x1, y1, x1-3*side, y1-side, x1+3*side, y1+side)             // through corner Max, into the cell
		f.Add(x0, y0, x1, y1, x0-side, y0+side, x0+side, y0-side)                 // through corner Min, touching only it
		f.Add(x0, y0, x1, y1, x0-side, y1, x1+side, y1)                           // along the top side
		f.Add(x0, y0, x1, y1, x1, y0-side, x1, y0-side/2)                         // along the right side's line, short of it
		f.Add(x0, y0, x1, y1, x0-side, y0+side/2, x0, y0+side/2)                  // ending on the left side
		f.Add(x0, y0, x1, y1, x0-side, y0+side/2, math.Nextafter(x0, 0), y0+side) // ending an ulp short of it
	}
	f.Fuzz(func(t *testing.T, x0, y0, x1, y1, ax, ay, bx, by float64) {
		check := func(r Rect, s Segment) {
			if got, want := r.IntersectsSegment(s), refRectIntersectsSegment(r, s); got != want {
				t.Fatalf("%v.IntersectsSegment(%v) = %v, four sides say %v", r, s, got, want)
			}
		}
		check(Rect{Pt(x0, y0), Pt(x1, y1)}, Segment{Pt(ax, ay), Pt(bx, by)})
		q := func(v float64) float64 { return math.Round(math.Mod(v, 8)) }
		check(Rect{Pt(q(x0), q(y0)), Pt(q(x1), q(y1))}, Segment{Pt(q(ax), q(ay)), Pt(q(bx), q(by))})
	})
}

// TestRectIntersectsSegmentLattice runs the same differential exhaustively
// over a 5×5 lattice: every rect (inverted ones included) against every
// segment, which enumerates each touching and collinear configuration.
func TestRectIntersectsSegmentLattice(t *testing.T) {
	var pts []Point
	for x := 0.0; x < 5; x++ {
		for y := 0.0; y < 5; y++ {
			pts = append(pts, Pt(x, y))
		}
	}
	for _, r0 := range pts {
		for _, r1 := range pts {
			for _, a := range pts {
				for _, b := range pts {
					r, s := Rect{r0, r1}, Segment{a, b}
					if got, want := r.IntersectsSegment(s), refRectIntersectsSegment(r, s); got != want {
						t.Fatalf("%v.IntersectsSegment(%v) = %v, four sides say %v", r, s, got, want)
					}
				}
			}
		}
	}
}
