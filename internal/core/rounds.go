package core

import "math"

// TheoreticalLog3N returns c · log³ n for shape comparisons in the
// experiment harness.
func TheoreticalLog3N(n int, c float64) float64 {
	l := math.Log2(float64(n + 1))
	return c * l * l * l
}
