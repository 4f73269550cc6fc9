// Package analysis is a self-contained static-analysis framework in the
// spirit of golang.org/x/tools/go/analysis, built only on the standard
// library's go/ast, go/parser and go/types (this module vendors no
// dependencies, so the x/tools framework itself is out of reach). It hosts
// the distboundvet analyzers that machine-check the engine's concurrency,
// pooling and warm-path invariants — guarantees that are otherwise enforced
// only dynamically by -race runs and allocation-gated benchmarks.
//
// An Analyzer inspects one type-checked package at a time through a Pass, or
// the whole loaded program at once, and reports Diagnostics. The
// cmd/distboundvet multichecker loads every package of the module (loader.go)
// and runs the whole suite; per-analyzer fixtures under testdata/ are
// exercised by the analysistest subpackage.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Analyzer describes one invariant checker: a name diagnostics are tagged
// with, a doc string the driver prints, and the Run function applied to each
// package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and driver flags. It must
	// be a valid Go identifier.
	Name string
	// Doc is the analyzer's documentation: first line is the summary.
	Doc string
	// Run applies the analyzer to one package, reporting findings through
	// pass.Reportf. The result value is unused by this driver (kept
	// for x/tools API shape) and may be nil.
	Run func(pass *Pass) (any, error)
	// Program, set instead of Run, applies the analyzer once to every loaded
	// package together: a whole-program check (reach) needs callers in other
	// packages, which no single Pass sees. All packages share one FileSet.
	Program func(pkgs []*Package, report func(Diagnostic)) error
}

// Pass carries one type-checked package through an analyzer run.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Fset maps token positions for Files.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees (tests excluded).
	Files []*ast.File
	// Pkg is the package's type information.
	Pkg *types.Package
	// TypesInfo records types and object resolutions for Files.
	TypesInfo *types.Info
	// ModuleRoot is the absolute module root directory; file classification
	// (cmd/, examples/, _test.go) is relative to it. Empty means no
	// classification — every file is treated as library code.
	ModuleRoot string

	report func(Diagnostic)
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// FileClass classifies a file for exemption purposes.
type FileClass int

const (
	// ClassLibrary is importable library code — the full invariant surface.
	ClassLibrary FileClass = iota
	// ClassTest is a _test.go file.
	ClassTest
	// ClassCommand is a file under a cmd/ directory, or any other file of a
	// main package.
	ClassCommand
	// ClassExample is a file under an examples/ directory.
	ClassExample
)

// ClassifyFile reports how a file should be treated by analyzers that exempt
// non-library code: _test.go files, files under cmd/ or examples/ relative to
// the module root, and any other package main file, which no caller can
// import and which owns its process the way a command does.
func (p *Pass) ClassifyFile(file *ast.File) FileClass {
	name := p.Fset.Position(file.Package).Filename
	if strings.HasSuffix(name, "_test.go") {
		return ClassTest
	}
	rel := name
	if p.ModuleRoot != "" {
		if r, err := filepath.Rel(p.ModuleRoot, name); err == nil {
			rel = r
		}
	}
	for _, seg := range strings.Split(filepath.ToSlash(rel), "/") {
		switch seg {
		case "cmd":
			return ClassCommand
		case "examples":
			return ClassExample
		}
	}
	if file.Name.Name == "main" {
		return ClassCommand
	}
	return ClassLibrary
}
