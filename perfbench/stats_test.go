package main

import (
	"math"
	"slices"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
}

// TestTailLeavesTenBeyond pins the "highest percentile with at least ten
// requests beyond it" rule: on n samples it is the (n−10)-th smallest, at
// the (n−10)/n quantile.
func TestTailLeavesTenBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		value   float64
		pct     float64
		enough  bool
		comment string
	}{
		{100, 90, 90, true, "p90 leaves x[90..99] beyond"},
		{1000, 990, 99, true, "p99 at a thousand samples"},
		{11, 1, 100.0 / 11, true, "the smallest sample is the only candidate"},
		{10, 10, 100, false, "ten samples cannot leave ten beyond: the maximum"},
	} {
		xs := ramp(tc.n)
		orig := slices.Clone(xs)
		v, pct, ok := tail(xs, tailBeyond)
		if v != tc.value || math.Abs(pct-tc.pct) > 1e-12 || ok != tc.enough {
			t.Errorf("%s: tail(n=%d) = (%v, %v, %v), want (%v, %v, %v)", tc.comment, tc.n, v, pct, ok, tc.value, tc.pct, tc.enough)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if tc.enough && beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail value, want %d", tc.n, beyond, tailBeyond)
		}
		if !slices.Equal(xs, orig) {
			t.Errorf("n=%d: tail reordered its input", tc.n)
		}
	}
}

// TestFailureAccounting: a request fails on its own verdict or on its
// document's pooled check, and is counted once either way.
func TestFailureAccounting(t *testing.T) {
	recs := []record{
		{doc: 0},
		{doc: 0, fail: "stopped unconverged"},
		{doc: 1},
		{doc: 1, fail: "drive error"},
		{doc: 2},
	}
	if got := countFailed(recs, nil); got != 2 {
		t.Errorf("own failures: %d, want 2", got)
	}
	// Document 1's pooled check fails: both its requests fail, the one
	// that already failed still counts once.
	if got := countFailed(recs, map[int]string{1: "marginal TV above envelope"}); got != 3 {
		t.Errorf("with a failed pooled check: %d, want 3", got)
	}
	if got := okFrac(len(recs), 3); got != 0.4 {
		t.Errorf("okFrac = %v, want 0.4", got)
	}
	if got := okFrac(4, 0); got != 1 {
		t.Errorf("okFrac with no failures = %v, want 1", got)
	}
}
