package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// PkgPath is the import path ("distbound", "distbound/internal/join").
	PkgPath string
	// Dir is the package directory.
	Dir string
	// Fset maps positions for Files; shared across one Loader.
	Fset *token.FileSet
	// Files are the parsed non-test files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info records type and object resolutions for Files.
	Info *types.Info
}

// Loader parses and type-checks module packages without export data: module
// imports resolve to source directories under the module root, and standard
// library imports type-check from GOROOT source via go/importer's "source"
// compiler — the only importer that works in a toolchain with neither
// installed .a files nor third-party dependencies.
type Loader struct {
	// Root is the absolute module root (the directory holding go.mod).
	Root string
	// ModulePath is the module's import path from go.mod.
	ModulePath string

	fset   *token.FileSet
	std    types.ImporterFrom
	pkgs   map[string]*types.Package
	loaded map[string]*Package
}

// NewLoader creates a loader for the module rooted at root. The module path
// is read from go.mod.
func NewLoader(root string) (*Loader, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:       root,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:       map[string]*types.Package{},
		loaded:     map[string]*Package{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Fset returns the loader's shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Import resolves one import path: module-internal paths type-check from
// their source directory, everything else delegates to the standard-library
// source importer. Results are memoized, so shared dependencies type-check
// once per loader.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	p, err := l.std.ImportFrom(path, l.Root, 0)
	if err != nil {
		return nil, fmt.Errorf("analysis: importing %q: %w", path, err)
	}
	l.pkgs[path] = p
	return p, nil
}

// Load parses and type-checks the module package with the given import path,
// memoized per loader.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.loaded[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.Root, filepath.FromSlash(rel))
	pkg, err := l.LoadDir(dir, path)
	if err != nil {
		return nil, err
	}
	l.loaded[path] = pkg
	l.pkgs[path] = pkg.Types
	return pkg, nil
}

// LoadDir parses the non-test .go files of one directory and type-checks
// them as the package with the given import path. Files excluded by their
// //go:build constraints or GOOS/GOARCH name suffixes for the current
// platform are skipped, matching the file set `go build` would compile —
// otherwise both halves of a platform pair (e.g. an mmap implementation
// and its stub) land in one package and redeclare each other. Callers
// outside the module tree (fixture runners) use it directly with an
// explicit path.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importerFunc(l.Import)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{PkgPath: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// PackageDirs walks the module tree and returns every directory containing
// at least one non-test .go file, skipping testdata, vendor, hidden and
// underscore-prefixed directories. That is the set `go list ./...` would name
// plus the nested bench/ module, which `go list` skips: the benchmark harness
// is a production root for reach (its main keeps alive what it calls), so
// dropping it here would let reach report — and a sweep delete — code only
// the harness runs.
func PackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// ImportPathForDir maps a directory under the module root to its import
// path.
func (l *Loader) ImportPathForDir(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// Run applies one analyzer to one loaded package, collecting diagnostics.
func Run(a *Analyzer, pkg *Package, moduleRoot string) ([]Diagnostic, error) {
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		TypesInfo:  pkg.Info,
		ModuleRoot: moduleRoot,
		report:     func(d Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.PkgPath, err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// RunProgram applies one whole-program analyzer to every loaded package
// together, collecting diagnostics.
func RunProgram(a *Analyzer, pkgs []*Package) ([]Diagnostic, error) {
	var diags []Diagnostic
	if err := a.Program(pkgs, func(d Diagnostic) { diags = append(diags, d) }); err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
