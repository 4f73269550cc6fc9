package testutil

import (
	"fmt"
	"testing"

	"distbound/internal/join"
)

// recorder is a testing.TB that records a Fatalf instead of failing.
type recorder struct {
	testing.TB
	failed string
}

func (r *recorder) Helper() {}

func (r *recorder) Fatalf(format string, args ...any) {
	if r.failed == "" {
		r.failed = fmt.Sprintf(format, args...)
	}
}

// TestCheckNested: answers whose finer level holds at most what the coarser
// one holds pass; a finer COUNT or MAX above the coarser one, a finer MIN
// below it, or two answers at one served bound that differ fail — whatever
// order the answers come in.
func TestCheckNested(t *testing.T) {
	res := func(agg join.Agg, counts []int64, extremes []float64) join.Result {
		return join.Result{Agg: agg, Counts: counts, Extremes: extremes}
	}
	coarse := []Served{
		{16, res(join.Count, []int64{5, 3, 0}, nil)},
		{16, res(join.Max, []int64{5, 3, 0}, []float64{9, 4, 0})},
		{16, res(join.Min, []int64{5, 3, 0}, []float64{-2, 1, 0})},
	}
	fine := []Served{
		{8, res(join.Count, []int64{4, 3, 0}, nil)},
		{8, res(join.Max, []int64{4, 3, 0}, []float64{7, 4, 0})},
		{8, res(join.Min, []int64{4, 3, 0}, []float64{-1, 1, 0})},
	}
	for _, tc := range []struct {
		name    string
		answers []Served
		nested  bool
	}{
		{"nested", append(append([]Served{}, coarse...), fine...), true},
		{"nested, finest first", append(append([]Served{}, fine...), coarse...), true},
		{"finer COUNT rises", []Served{coarse[0], {8, res(join.Count, []int64{4, 4, 0}, nil)}}, false},
		{"finer MAX rises", []Served{coarse[1], {8, res(join.Max, []int64{4, 3, 0}, []float64{10, 4, 0})}}, false},
		{"finer MIN falls", []Served{{8, res(join.Min, []int64{4, 3, 0}, []float64{-1, 0.5, 0})}, coarse[2]}, false},
		{"one served bound, two answers", []Served{coarse[0], {16, res(join.Count, []int64{5, 2, 0}, nil)}}, false},
	} {
		r := &recorder{TB: t}
		CheckNested(r, tc.name, tc.answers)
		if nested := r.failed == ""; nested != tc.nested {
			t.Errorf("%s: CheckNested passed = %v (%q), want %v", tc.name, nested, r.failed, tc.nested)
		}
	}
}
