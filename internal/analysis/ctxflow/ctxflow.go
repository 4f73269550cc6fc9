// Package ctxflow rejects context.Background() and context.TODO() in
// library code. Every layer of the engine threads a caller context — that is
// what makes cancellation and deadlines propagate through builds, fan-outs
// and cache waits — so a fresh background context inside the library is
// almost always a severed cancellation chain. Commands (any package main),
// examples and tests own their contexts and are exempt; a library
// declaration that genuinely must detach (a context-free convenience
// wrapper, a build shared across waiters) carries a
// //distbound:allow-background directive with a reason.
package ctxflow

import (
	"go/ast"
	"go/types"

	"distbound/internal/analysis"
)

// Annotation is the suppression directive: //distbound:allow-background
// <reason> on the enclosing declaration.
const Annotation = "allow-background"

// Analyzer is the ctxflow analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "reject context.Background()/TODO() in library code; " +
		"annotate deliberate detachments with //distbound:allow-background <reason>",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		if pass.ClassifyFile(file) != analysis.ClassLibrary {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := backgroundCall(pass, call)
			if !ok {
				return true
			}
			if fd := analysis.EnclosingFunc(file, call); fd != nil {
				if a, ok := analysis.FuncAnnotation(fd, Annotation); ok {
					if a.Reason == "" {
						pass.Reportf(fd.Pos(), "//distbound:allow-background requires a reason")
					}
					return true
				}
			}
			pass.Reportf(call.Pos(),
				"context.%s() in library code severs the cancellation chain; "+
					"thread the caller's context or annotate the declaration with //distbound:allow-background <reason>",
				name)
			return true
		})
	}
	return nil, nil
}

// backgroundCall reports whether call is context.Background() or
// context.TODO(), resolved through the type checker so a local package named
// context cannot false-positive.
func backgroundCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkgName, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "context" {
		return "", false
	}
	return sel.Sel.Name, true
}
