package analysis

import (
	"path/filepath"
	"slices"
	"testing"
)

// TestPackageDirsIncludesBench pins the nested bench/ module among the
// directories PackageDirs walks, and that it loads as distbound/bench. The
// harness is a production root for reach: dropping it here would let reach
// report, and a sweep delete, code only the benchmark runs.
func TestPackageDirsIncludesBench(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := PackageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	bench := filepath.Join(root, "bench")
	if !slices.Contains(dirs, bench) {
		t.Fatalf("PackageDirs(%s) omits %s", root, bench)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	path, err := l.ImportPathForDir(bench)
	if err != nil || path != "distbound/bench" {
		t.Fatalf("bench import path %q, %v; want distbound/bench", path, err)
	}
	pkg, err := l.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if pkg.Types.Name() != "main" || pkg.Types.Scope().Lookup("main") == nil {
		t.Errorf("distbound/bench loaded as package %s without main", pkg.Types.Name())
	}
}
