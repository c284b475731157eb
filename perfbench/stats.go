package main

// stats.go: the summary statistics of a run. Every rate is a median of
// per-drive values, never a sum divided by a sum, so one slow drive moves
// a rate no more than it moves the median drive time.

import (
	"math"
	"slices"
)

// tailBeyond is how many requests the tail percentile leaves above it:
// drive_s_tail is the highest percentile with at least this many requests
// beyond it.
const tailBeyond = 10

// median returns the median of xs (the mean of the middle pair for an even
// count), NaN for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tail returns the highest percentile of xs that leaves at least beyond
// samples above it, and that percentile (0–100). On n sorted samples it is
// the nearest-rank value x[n−beyond−1]: exactly beyond samples lie above
// it, and its rank is the (n−beyond)/n quantile. ok is false when there are
// not more than beyond samples; the maximum is returned then, as the 100th
// percentile.
func tail(xs []float64, beyond int) (value, pct float64, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN(), false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n <= beyond {
		return s[n-1], 100, false
	}
	return s[n-beyond-1], 100 * float64(n-beyond) / float64(n), true
}

// record is one served request as the end-to-end metrics see it.
type record struct {
	// id is the request's index in the run, doc the workload's document it
	// drove.
	id, doc int
	// at is when the request started, in seconds since the timed loop did,
	// and setup the time of the fresh set-up that preceded it.
	at, setup float64
	// seconds is the request's wall-clock time.
	seconds float64
	// sweeps is the sweep-equivalent count at the stop decision, ess the
	// final min-ESS, chains the chain count.
	sweeps int
	ess    float64
	chains int
	// allocMB is the heap allocated while serving the request.
	allocMB float64
	// fail says why the request failed its own checks ("" when it
	// converged and passed them).
	fail string
}

// countFailed returns how many requests failed: a request fails when it
// failed its own checks or when the pooled check of its document failed
// (badDocs maps a document index to that check's verdict).
func countFailed(recs []record, badDocs map[int]string) int {
	failed := 0
	for _, r := range recs {
		if r.fail != "" || badDocs[r.doc] != "" {
			failed++
		}
	}
	return failed
}

// okFrac is the share of attempted requests that did not fail.
func okFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}
