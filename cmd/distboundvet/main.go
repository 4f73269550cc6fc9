// Command distboundvet runs the distbound analyzer suite over the module:
//
//	go run ./cmd/distboundvet ./...
//
// It loads and type-checks every package under the module root (stdlib
// imports type-check from GOROOT source, so no compiled export data or
// network access is needed), applies each analyzer, prints findings as
//
//	file:line:col: message (analyzer)
//
// and exits 1 if any were found. Pass package directories or ./... patterns;
// with no arguments it checks the whole module. The whole-program reach
// analyzer always loads the whole module (its roots are commands, examples and
// the bench/ harness) and reports only within the targets. -list prints the
// analyzers and exits.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"distbound/internal/analysis"
	"distbound/internal/analysis/ctxflow"
	"distbound/internal/analysis/noalloc"
	"distbound/internal/analysis/reach"
	"distbound/internal/analysis/releasepair"
	"distbound/internal/analysis/snapshotdiscipline"
)

// analyzers is the suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	snapshotdiscipline.Analyzer,
	releasepair.Analyzer,
	ctxflow.Analyzer,
	noalloc.Analyzer,
	reach.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "print the analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default all)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: distboundvet [-list] [-only a,b] [./... | dirs]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-20s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected, err := selectAnalyzers(*only)
	if err != nil {
		fatal(err)
	}

	root, err := findModuleRoot()
	if err != nil {
		fatal(err)
	}
	dirs, err := targetDirs(root, flag.Args())
	if err != nil {
		fatal(err)
	}

	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatal(err)
	}

	findings := 0
	emit := func(a *analysis.Analyzer, fset *token.FileSet, d analysis.Diagnostic) {
		pos := fset.Position(d.Pos)
		rel, rerr := filepath.Rel(root, pos.Filename)
		if rerr != nil {
			rel = pos.Filename
		}
		fmt.Printf("%s:%d:%d: %s (%s)\n", rel, pos.Line, pos.Column, d.Message, a.Name)
		findings++
	}
	load := func(dir string) *analysis.Package {
		path, err := loader.ImportPathForDir(dir)
		if err != nil {
			fatal(err)
		}
		pkg, err := loader.Load(path)
		if err != nil {
			fatal(fmt.Errorf("loading %s: %w", path, err))
		}
		return pkg
	}
	target := map[string]bool{}
	for _, dir := range dirs {
		target[dir] = true
		pkg := load(dir)
		for _, a := range selected {
			if a.Program != nil {
				continue
			}
			diags, err := analysis.Run(a, pkg, root)
			if err != nil {
				fatal(err)
			}
			for _, d := range diags {
				emit(a, pkg.Fset, d)
			}
		}
	}
	// A whole-program analyzer sees every package of the module, whatever
	// the targets, and reports only within them: its roots may lie outside.
	var program []*analysis.Package
	for _, a := range selected {
		if a.Program == nil {
			continue
		}
		if program == nil {
			all, err := analysis.PackageDirs(root)
			if err != nil {
				fatal(err)
			}
			for _, dir := range all {
				program = append(program, load(dir))
			}
		}
		diags, err := analysis.RunProgram(a, program)
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			if target[filepath.Dir(loader.Fset().Position(d.Pos).Filename)] {
				emit(a, loader.Fset(), d)
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "distboundvet: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -only flag against the suite.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return analyzers, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// findModuleRoot walks up from the working directory to go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("distboundvet: no go.mod found above the working directory")
		}
		dir = parent
	}
}

// targetDirs expands the argument list into package directories. "./..."
// (or a path ending in /...) expands recursively; a bare path names one
// directory; no arguments means the whole module.
func targetDirs(root string, args []string) ([]string, error) {
	if len(args) == 0 {
		return analysis.PackageDirs(root)
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(ds ...string) {
		for _, d := range ds {
			if !seen[d] {
				seen[d] = true
				dirs = append(dirs, d)
			}
		}
	}
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			ds, err := analysis.PackageDirs(root)
			if err != nil {
				return nil, err
			}
			add(ds...)
			continue
		}
		if base, ok := strings.CutSuffix(arg, "/..."); ok {
			ds, err := analysis.PackageDirs(absDir(root, base))
			if err != nil {
				return nil, err
			}
			add(ds...)
			continue
		}
		add(absDir(root, arg))
	}
	sort.Strings(dirs)
	return dirs, nil
}

// absDir resolves a command-line path argument relative to the working
// directory.
func absDir(root, arg string) string {
	if filepath.IsAbs(arg) {
		return filepath.Clean(arg)
	}
	abs, err := filepath.Abs(arg)
	if err != nil {
		return filepath.Join(root, arg)
	}
	return abs
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "distboundvet: %v\n", err)
	os.Exit(1)
}
