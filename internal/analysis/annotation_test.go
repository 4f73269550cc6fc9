package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func parseDecl(t *testing.T, src string) (*token.FileSet, *ast.File, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return fset, f, fd
		}
	}
	t.Fatal("no func decl")
	return nil, nil, nil
}

func TestFuncAnnotation(t *testing.T) {
	_, _, fd := parseDecl(t, `package p

// Frobnicate frobnicates.
//
//distbound:noalloc
//distbound:allow-background compat wrapper; callers hold no context
func Frobnicate() {}
`)
	if a, ok := FuncAnnotation(fd, "noalloc"); !ok || a.Reason != "" {
		t.Errorf("noalloc = %+v, %v; want present with empty reason", a, ok)
	}
	a, ok := FuncAnnotation(fd, "allow-background")
	if !ok {
		t.Fatal("allow-background not found")
	}
	if want := "compat wrapper; callers hold no context"; a.Reason != want {
		t.Errorf("reason = %q, want %q", a.Reason, want)
	}
	if _, ok := FuncAnnotation(fd, "allow-multisnapshot"); ok {
		t.Error("allow-multisnapshot unexpectedly present")
	}
}

func TestAnnotationRequiresDirectiveShape(t *testing.T) {
	// A spaced comment is prose, not a directive.
	_, _, fd := parseDecl(t, `package p

// distbound:noalloc
func F() {}
`)
	if _, ok := FuncAnnotation(fd, "noalloc"); ok {
		t.Error("spaced comment parsed as directive")
	}
}

func TestClassifyFile(t *testing.T) {
	fset := token.NewFileSet()
	cases := []struct {
		path, pkg string
		want      FileClass
	}{
		{"/mod/engine.go", "p", ClassLibrary},
		{"/mod/engine_test.go", "p", ClassTest},
		{"/mod/cmd/spatialbench/main.go", "main", ClassCommand},
		{"/mod/examples/demo/main.go", "main", ClassExample},
		{"/mod/internal/join/coverplan.go", "p", ClassLibrary},
		{"/mod/bench/main.go", "main", ClassCommand},
		{"/mod/bench/main_test.go", "main", ClassTest},
	}
	for _, c := range cases {
		f, err := parser.ParseFile(fset, c.path, "package "+c.pkg+"\n", 0)
		if err != nil {
			t.Fatal(err)
		}
		pass := &Pass{Fset: fset, ModuleRoot: "/mod"}
		if got := pass.ClassifyFile(f); got != c.want {
			t.Errorf("ClassifyFile(%s) = %v, want %v", c.path, got, c.want)
		}
	}
}
