// Package viz renders polygons and raster approximations as standalone SVG
// documents. Visual exploration tools are the paper's motivating
// application (§1, Uber Movement), and pictures are also the fastest way to
// audit an approximation: the interior/boundary split of Figure 1 comes
// straight out of this package.
package viz

import (
	"fmt"
	"io"
	"math"
	"strings"

	"distbound/internal/geom"
	"distbound/internal/raster"
)

// Style configures a drawable layer.
type Style struct {
	Fill        string  // CSS color; "" = none
	Stroke      string  // CSS color; "" = none
	StrokeWidth float64 // in user units; 0 picks a hairline
	Opacity     float64 // 0 defaults to 1
}

func (s Style) attrs() string {
	fill := s.Fill
	if fill == "" {
		fill = "none"
	}
	var b strings.Builder
	fmt.Fprintf(&b, `fill=%q`, fill)
	if s.Stroke != "" {
		fmt.Fprintf(&b, ` stroke=%q stroke-width="%g"`, s.Stroke, s.StrokeWidth)
	}
	if s.Opacity > 0 && s.Opacity < 1 {
		fmt.Fprintf(&b, ` opacity="%g"`, s.Opacity)
	}
	return b.String()
}

// SVG accumulates layers and writes one document. The coordinate system is
// flipped so that y grows upward, matching the geometry convention.
type SVG struct {
	bounds geom.Rect
	width  int
	layers []string
}

// New creates a drawing of the given spatial extent, width pixels wide
// (height follows the aspect ratio).
func New(bounds geom.Rect, width int) *SVG {
	if width <= 0 {
		width = 800
	}
	return &SVG{bounds: bounds, width: width}
}

// scale returns pixels per spatial unit.
func (s *SVG) scale() float64 {
	if s.bounds.Width() <= 0 {
		return 1
	}
	return float64(s.width) / s.bounds.Width()
}

func (s *SVG) height() int {
	return int(math.Ceil(s.bounds.Height() * s.scale()))
}

// x/y map spatial coordinates to SVG user units (y flipped).
func (s *SVG) x(v float64) float64 { return (v - s.bounds.Min.X) * s.scale() }
func (s *SVG) y(v float64) float64 { return (s.bounds.Max.Y - v) * s.scale() }

// AddPolygon draws a polygon with holes (even-odd fill).
func (s *SVG) AddPolygon(p *geom.Polygon, style Style) {
	var b strings.Builder
	b.WriteString(`<path fill-rule="evenodd" d="`)
	for _, ring := range p.Rings() {
		for i, pt := range ring {
			cmd := "L"
			if i == 0 {
				cmd = "M"
			}
			fmt.Fprintf(&b, "%s%.2f %.2f", cmd, s.x(pt.X), s.y(pt.Y))
		}
		b.WriteString("Z")
	}
	fmt.Fprintf(&b, `" %s/>`, style.attrs())
	s.layers = append(s.layers, b.String())
}

// AddApproximation draws a raster approximation: interior cells in one
// style, boundary cells in another — Figure 1 as an image.
func (s *SVG) AddApproximation(a *raster.Approximation, interior, boundary Style) {
	var b strings.Builder
	fmt.Fprintf(&b, `<g %s>`, interior.attrs())
	for _, id := range a.Interior {
		r := a.Domain.CellIDRect(a.Curve, id)
		fmt.Fprintf(&b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f"/>`,
			s.x(r.Min.X), s.y(r.Max.Y), r.Width()*s.scale(), r.Height()*s.scale())
	}
	b.WriteString(`</g>`)
	s.layers = append(s.layers, b.String())

	b.Reset()
	fmt.Fprintf(&b, `<g %s>`, boundary.attrs())
	for _, id := range a.Boundary {
		r := a.Domain.CellIDRect(a.Curve, id)
		fmt.Fprintf(&b, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f"/>`,
			s.x(r.Min.X), s.y(r.Max.Y), r.Width()*s.scale(), r.Height()*s.scale())
	}
	b.WriteString(`</g>`)
	s.layers = append(s.layers, b.String())
}

// WriteTo emits the SVG document.
func (s *SVG) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		s.width, s.height(), s.width, s.height())
	b.WriteString("\n")
	for _, l := range s.layers {
		b.WriteString(l)
		b.WriteString("\n")
	}
	b.WriteString("</svg>\n")
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// String renders the document.
func (s *SVG) String() string {
	var b strings.Builder
	if _, err := s.WriteTo(&b); err != nil {
		return ""
	}
	return b.String()
}
