package geom

import (
	"fmt"
	"strconv"
	"strings"
)

// WKT encoding of (multi)polygons and a small parser for the subset of
// Well-Known Text used by the tooling: POINT, POLYGON and MULTIPOLYGON. This
// keeps the synthetic datasets dumpable and diffable (cmd/datagen) and makes
// examples concrete.

// PolygonWKT renders p as a WKT POLYGON, closing each ring.
func PolygonWKT(p *Polygon) string {
	var b strings.Builder
	b.WriteString("POLYGON ")
	writePolygonBody(&b, p)
	return b.String()
}

// MultiPolygonWKT renders m as a WKT MULTIPOLYGON.
func MultiPolygonWKT(m *MultiPolygon) string {
	var b strings.Builder
	b.WriteString("MULTIPOLYGON (")
	for i, p := range m.Polygons {
		if i > 0 {
			b.WriteString(", ")
		}
		writePolygonBody(&b, p)
	}
	b.WriteString(")")
	return b.String()
}

func writePolygonBody(b *strings.Builder, p *Polygon) {
	b.WriteString("(")
	writeRing(b, p.Outer)
	for _, h := range p.Holes {
		b.WriteString(", ")
		writeRing(b, h)
	}
	b.WriteString(")")
}

func writeRing(b *strings.Builder, r Ring) {
	b.WriteString("(")
	for i, pt := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(fmtCoord(pt.X))
		b.WriteString(" ")
		b.WriteString(fmtCoord(pt.Y))
	}
	if len(r) > 0 { // close the ring per the WKT spec
		b.WriteString(", ")
		b.WriteString(fmtCoord(r[0].X))
		b.WriteString(" ")
		b.WriteString(fmtCoord(r[0].Y))
	}
	b.WriteString(")")
}

func fmtCoord(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

type wktParser struct {
	s   string
	pos int
}

func (p *wktParser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t' || p.s[p.pos] == '\n' || p.s[p.pos] == '\r') {
		p.pos++
	}
}

func (p *wktParser) expect(c byte) error {
	p.skipSpace()
	if p.pos >= len(p.s) || p.s[p.pos] != c {
		return fmt.Errorf("geom: wkt: expected %q at offset %d", string(c), p.pos)
	}
	p.pos++
	return nil
}

func (p *wktParser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.s) {
		return 0
	}
	return p.s[p.pos]
}

func (p *wktParser) keyword() string {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') {
			p.pos++
		} else {
			break
		}
	}
	return strings.ToUpper(p.s[start:p.pos])
}

func (p *wktParser) number() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
			p.pos++
		} else {
			break
		}
	}
	if start == p.pos {
		return 0, fmt.Errorf("geom: wkt: expected number at offset %d", p.pos)
	}
	return strconv.ParseFloat(p.s[start:p.pos], 64)
}

func (p *wktParser) point() (Point, error) {
	x, err := p.number()
	if err != nil {
		return Point{}, err
	}
	y, err := p.number()
	if err != nil {
		return Point{}, err
	}
	return Point{x, y}, nil
}

func (p *wktParser) ring() (Ring, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	var r Ring
	for {
		pt, err := p.point()
		if err != nil {
			return nil, err
		}
		r = append(r, pt)
		if p.peek() == ',' {
			p.pos++
			continue
		}
		break
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	// Drop the explicit closing vertex if present.
	if len(r) > 1 && r[0].Eq(r[len(r)-1]) {
		r = r[:len(r)-1]
	}
	return r, nil
}

func (p *wktParser) polygonBody() (*Polygon, error) {
	if err := p.expect('('); err != nil {
		return nil, err
	}
	outer, err := p.ring()
	if err != nil {
		return nil, err
	}
	var holes []Ring
	for p.peek() == ',' {
		p.pos++
		h, err := p.ring()
		if err != nil {
			return nil, err
		}
		holes = append(holes, h)
	}
	if err := p.expect(')'); err != nil {
		return nil, err
	}
	return NewPolygon(outer, holes...)
}

// ParseWKT parses a POINT, POLYGON or MULTIPOLYGON and returns a Point,
// *Polygon or *MultiPolygon respectively.
func ParseWKT(s string) (any, error) {
	p := &wktParser{s: s}
	switch kw := p.keyword(); kw {
	case "POINT":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		pt, err := p.point()
		if err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return pt, nil
	case "POLYGON":
		return p.polygonBody()
	case "MULTIPOLYGON":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		var parts []*Polygon
		for {
			poly, err := p.polygonBody()
			if err != nil {
				return nil, err
			}
			parts = append(parts, poly)
			if p.peek() == ',' {
				p.pos++
				continue
			}
			break
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return NewMultiPolygon(parts...), nil
	default:
		return nil, fmt.Errorf("geom: wkt: unsupported geometry type %q", kw)
	}
}

// ParsePolygonWKT parses a WKT POLYGON string.
func ParsePolygonWKT(s string) (*Polygon, error) {
	v, err := ParseWKT(s)
	if err != nil {
		return nil, err
	}
	poly, ok := v.(*Polygon)
	if !ok {
		return nil, fmt.Errorf("geom: wkt: expected POLYGON, got %T", v)
	}
	return poly, nil
}
