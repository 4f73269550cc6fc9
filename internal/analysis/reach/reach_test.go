package reach_test

import (
	"testing"

	"distbound/internal/analysis/analysistest"
	"distbound/internal/analysis/reach"
)

// TestReach covers a seeded unreachable function, a method only a _test.go
// file reaches through an interface (Circle.Area), a method production code
// reaches through an interface conversion (Square.Area, not reported), and
// api and oracle annotations without a reason.
func TestReach(t *testing.T) {
	analysistest.Run(t, ".", reach.Analyzer, "rfix")
}
