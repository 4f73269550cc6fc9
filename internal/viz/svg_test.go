package viz

import (
	"strings"
	"testing"

	"distbound/internal/geom"
	"distbound/internal/raster"
	"distbound/internal/sfc"
)

func testPolygon() *geom.Polygon {
	return geom.MustPolygon(
		geom.Ring{geom.Pt(10, 10), geom.Pt(90, 20), geom.Pt(80, 90), geom.Pt(20, 80)},
		geom.Ring{geom.Pt(40, 40), geom.Pt(60, 40), geom.Pt(60, 60), geom.Pt(40, 60)},
	)
}

func TestSVGDocumentStructure(t *testing.T) {
	p := testPolygon()
	s := New(p.Bounds().Expand(5), 400)
	s.AddPolygon(p, Style{Fill: "#cde", Stroke: "#235", StrokeWidth: 1})
	out := s.String()

	for _, want := range []string{
		"<svg xmlns", "</svg>", "<path", "evenodd",
		`fill="#cde"`, `stroke="#235"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Two rings → two Z closures in the path.
	if strings.Count(out, "Z") != 2 {
		t.Errorf("path closures = %d, want 2", strings.Count(out, "Z"))
	}
}

func TestSVGApproximationLayers(t *testing.T) {
	p := testPolygon()
	d, err := sfc.NewDomain(geom.Pt(0, 0), 128)
	if err != nil {
		t.Fatal(err)
	}
	a, err := raster.Hierarchical(p, d, sfc.Hilbert{}, 4, raster.Conservative)
	if err != nil {
		t.Fatal(err)
	}
	s := New(d.Bounds(), 512)
	s.AddApproximation(a, Style{Fill: "#9c9"}, Style{Fill: "#c9c"})
	out := s.String()
	// One rect per cell plus the two group wrappers.
	if got := strings.Count(out, "<rect"); got != a.NumCells() {
		t.Errorf("rect count = %d, want %d cells", got, a.NumCells())
	}
	if strings.Count(out, "<g") != 2 {
		t.Error("expected two cell groups (interior + boundary)")
	}
}

func TestSVGCoordinateFlip(t *testing.T) {
	// A vertex at the top of the extent must land at SVG y=0, one at the
	// bottom at the drawing's height.
	s := New(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}, 100)
	s.AddPolygon(geom.MustPolygon(geom.Ring{geom.Pt(50, 100), geom.Pt(20, 0), geom.Pt(80, 0)}), Style{Fill: "k"})
	if out := s.String(); !strings.Contains(out, "M50.00 0.00") || !strings.Contains(out, "L20.00 100.00") {
		t.Errorf("vertices not flipped onto SVG y:\n%s", out)
	}
}

func TestSVGDefaults(t *testing.T) {
	s := New(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10, 20)}, 0)
	if s.width != 800 {
		t.Errorf("default width = %d", s.width)
	}
	if s.height() != 1600 {
		t.Errorf("aspect-derived height = %d, want 1600", s.height())
	}
	st := Style{Opacity: 0.5}
	if !strings.Contains(st.attrs(), `opacity="0.5"`) || !strings.Contains(st.attrs(), `fill="none"`) {
		t.Errorf("style attrs = %s", st.attrs())
	}
}
