// Package analysistest runs an analyzer over fixture packages and checks its
// diagnostics against // want "regex" comments, in the spirit of
// golang.org/x/tools/go/analysis/analysistest but built on the in-tree
// framework.
//
// Fixtures live under <analyzer pkg>/testdata/src/<pkg>/; each expectation is
// written on the line it anticipates:
//
//	resp.Release()
//	_ = resp.Results // want `read after`
//
// The regular expression must match the diagnostic message. Every diagnostic
// must be wanted and every want must be matched, or the test fails with a
// per-line report.
package analysistest

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"distbound/internal/analysis"
)

// wantRe extracts the quoted pattern of a // want comment. Both `...` and
// "..." quoting are accepted.
var wantRe = regexp.MustCompile("//\\s*want\\s+(`([^`]*)`|\"([^\"]*)\")")

// Run loads the fixture package at dir/testdata/src/pkg, applies the
// analyzer, and reports mismatches between produced diagnostics and // want
// expectations to t.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	srcRoot := filepath.Join(dir, "testdata", "src")
	pkgDir := filepath.Join(srcRoot, filepath.FromSlash(pkg))

	loader, err := analysis.NewLoader(moduleRoot(t, dir))
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	loaded, err := loader.LoadDir(pkgDir, pkg)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pkg, err)
	}

	// The fixture tree is the "module root" for classification purposes, so
	// fixture files under cmd/ or examples/ classify the way real ones would.
	// A whole-program analyzer sees the fixture package as the program.
	var diags []analysis.Diagnostic
	if a.Program != nil {
		diags, err = analysis.RunProgram(a, []*analysis.Package{loaded})
	} else {
		diags, err = analysis.Run(a, loaded, srcRoot)
	}
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	wants := collectWants(t, loaded.Fset, loaded.Files)

	matched := map[*want]bool{}
	for _, d := range diags {
		pos := loaded.Fset.Position(d.Pos)
		w := findWant(wants, pos.Filename, pos.Line)
		if w == nil {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
			continue
		}
		if !w.re.MatchString(d.Message) {
			t.Errorf("%s:%d: diagnostic %q does not match want %q",
				filepath.Base(pos.Filename), pos.Line, d.Message, w.re.String())
			continue
		}
		matched[w] = true
	}
	for _, w := range wants {
		if !matched[w] {
			t.Errorf("%s:%d: no diagnostic matching %q",
				filepath.Base(w.file), w.line, w.re.String())
		}
	}
}

// want is one expectation: a pattern anchored to a file line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants parses the // want comments of the loaded files.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat := m[2]
				if pat == "" {
					pat = m[3]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", fset.Position(c.Pos()), pat, err)
				}
				pos := fset.Position(c.Pos())
				wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// findWant returns the expectation for a file line, or nil.
func findWant(wants []*want, file string, line int) *want {
	for _, w := range wants {
		if w.file == file && w.line == line {
			return w
		}
	}
	return nil
}

// moduleRoot walks up from dir to the directory containing go.mod. Fixture
// runs still need the real module's loader (for the module path and stdlib
// importer); classification uses the fixture tree separately.
func moduleRoot(t *testing.T, dir string) string {
	t.Helper()
	d, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			t.Fatalf("no go.mod above %s", dir)
		}
		d = parent
	}
}
