package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Dist is a probability distribution over the symbols 0..len-1.
type Dist []float64

// ErrZeroMass indicates a weight vector (or joint table) with no positive
// mass to normalize.
var ErrZeroMass = errors.New("dist: zero total mass")

// FromWeights normalizes a vector of nonnegative weights into a
// distribution. It rejects empty vectors, negative or non-finite weights,
// and all-zero vectors (the infeasible-pinning signal the enumeration
// referee relies on).
func FromWeights(w []float64) (Dist, error) {
	if len(w) == 0 {
		return nil, errors.New("dist: empty weight vector")
	}
	total := 0.0
	for i, x := range w {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("dist: weight %v at index %d", x, i)
		}
		total += x
	}
	if total <= 0 {
		return nil, ErrZeroMass
	}
	if math.IsInf(total, 0) {
		return nil, errors.New("dist: total weight overflows to +Inf")
	}
	d := make(Dist, len(w))
	for i, x := range w {
		d[i] = x / total
	}
	return d, nil
}

// Uniform returns the uniform distribution over n symbols. It panics when
// n <= 0 (a programmer error at every call site).
func Uniform(n int) Dist {
	if n <= 0 {
		panic(fmt.Sprintf("dist: Uniform(%d)", n))
	}
	d := make(Dist, n)
	for i := range d {
		d[i] = 1 / float64(n)
	}
	return d
}

// Point returns the point mass at symbol x over an alphabet of q symbols.
// It panics when x is outside 0..q-1 (pinned values are validated upstream,
// so this is a programmer error).
func Point(q, x int) Dist {
	if x < 0 || x >= q {
		panic(fmt.Sprintf("dist: Point(%d, %d)", q, x))
	}
	d := make(Dist, q)
	d[x] = 1
	return d
}

// Mix returns (1-w)·a + w·b, the mixture of two distributions on the same
// alphabet with weight w toward b.
func Mix(a, b Dist, w float64) (Dist, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("dist: mixing alphabets %d and %d", len(a), len(b))
	}
	if w < 0 || w > 1 || math.IsNaN(w) {
		return nil, fmt.Errorf("dist: mixture weight %v outside [0,1]", w)
	}
	out := make(Dist, len(a))
	for i := range out {
		out[i] = (1-w)*a[i] + w*b[i]
	}
	return out, nil
}

// sampleWalk returns the first index whose running weight total exceeds u,
// skipping nonpositive entries. Rounding slack falls to the last positive
// index, so the result always has positive weight (-1 only when no entry
// does). Shared by Dist.Sample, Joint.Sample, and SampleWeights so the
// tie-breaking semantics stay in one place.
func sampleWalk(w []float64, u float64) int {
	acc := 0.0
	last := -1
	for i, x := range w {
		if x <= 0 {
			continue
		}
		last = i
		acc += x
		if u < acc {
			return i
		}
	}
	return last
}

// Sample draws a symbol from the distribution. Rounding slack falls to the
// last positive symbol, so the result always has positive probability.
func (d Dist) Sample(rng *rand.Rand) int {
	return sampleWalk(d, rng.Float64())
}

// SampleWeights draws an index proportional to the given nonnegative,
// not-necessarily-normalized weights without allocating, consuming one
// uniform of the Xoshiro stream. It applies the same validation as
// FromWeights. The fused sampling kernels of internal/gibbs reproduce it
// symbol for symbol, and their tests use it as the referee draw.
func SampleWeights(w []float64, rng *Xoshiro) (int, error) {
	if len(w) == 0 {
		return -1, errors.New("dist: empty weight vector")
	}
	total := 0.0
	for i, x := range w {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return -1, fmt.Errorf("dist: weight %v at index %d", x, i)
		}
		total += x
	}
	if total <= 0 {
		return -1, ErrZeroMass
	}
	if math.IsInf(total, 0) {
		return -1, errors.New("dist: total weight overflows to +Inf")
	}
	return sampleWalk(w, rng.Float64()*total), nil
}

// ArgMax returns the most probable symbol (smallest index on ties), or -1
// for an empty distribution.
func (d Dist) ArgMax() int {
	best := -1
	bestP := math.Inf(-1)
	for i, p := range d {
		if p > bestP {
			best, bestP = i, p
		}
	}
	return best
}

// Validate checks that the entries are nonnegative, finite, and sum to 1
// within tol.
func (d Dist) Validate(tol float64) error {
	if len(d) == 0 {
		return errors.New("dist: empty distribution")
	}
	total := 0.0
	for i, p := range d {
		if p < -tol || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("dist: entry %v at index %d", p, i)
		}
		total += p
	}
	if math.Abs(total-1) > tol {
		return fmt.Errorf("dist: total mass %v != 1", total)
	}
	return nil
}

// TV returns the total variation distance d_TV(a, b) = ½·Σ|a(c) − b(c)|
// between two distributions on the same alphabet.
func TV(a, b Dist) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("dist: TV over alphabets %d and %d", len(a), len(b))
	}
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s / 2, nil
}

// MultErr returns the multiplicative error err(a, b) = max_c |ln a(c) −
// ln b(c)| of Section 4.1 — the metric in which the boosting lemma states
// its guarantee, and the one whose telescoping product controls the chain
// rule of Theorem 3.2. Symbols carrying zero mass under both distributions
// are outside both supports and are skipped; a symbol in exactly one
// support makes the error +Inf.
func MultErr(a, b Dist) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("dist: MultErr over alphabets %d and %d", len(a), len(b))
	}
	worst := 0.0
	for i := range a {
		pa, pb := a[i], b[i]
		switch {
		case pa == 0 && pb == 0:
			continue
		case pa <= 0 || pb <= 0:
			return math.Inf(1), nil
		}
		if d := math.Abs(math.Log(pa) - math.Log(pb)); d > worst {
			worst = d
		}
	}
	return worst, nil
}

// ExpectedTVNoise is the sampling-noise envelope for comparing an empirical
// distribution built from `samples` draws against a truth with `support`
// support points: E[d_TV] ≤ ½·√(support/samples) (Cauchy–Schwarz over the
// per-cell binomial deviations), plus a 1.5/√samples concentration margin
// (the empirical TV is 1/samples-Lipschitz per draw, so its fluctuations
// are O(1/√samples) by McDiarmid). Experiments treat an empirical TV below
// this envelope as "statistically indistinguishable from exact". Returns 1
// (the maximum TV) when samples <= 0.
func ExpectedTVNoise(support, samples int) float64 {
	if samples <= 0 {
		return 1
	}
	if support < 1 {
		support = 1
	}
	m := float64(samples)
	noise := 0.5*math.Sqrt(float64(support)/m) + 1.5/math.Sqrt(m)
	if noise > 1 {
		return 1
	}
	return noise
}
