package ctxflow_test

import (
	"testing"

	"distbound/internal/analysis/analysistest"
	"distbound/internal/analysis/ctxflow"
)

func TestCtxflow(t *testing.T) {
	analysistest.Run(t, ".", ctxflow.Analyzer, "cfix")
}

func TestCtxflowCommandExempt(t *testing.T) {
	// The cmd/ fixture contains context.Background() and zero want comments:
	// a diagnostic there fails the run.
	analysistest.Run(t, ".", ctxflow.Analyzer, "cfix/cmd/tool")
}

func TestCtxflowMainPackageExempt(t *testing.T) {
	// A package main outside cmd/ — a harness like bench/ — owns its contexts
	// too: a diagnostic in the fixture fails the run.
	analysistest.Run(t, ".", ctxflow.Analyzer, "cfix/harness")
}
