package sampler

// rhatref_test.go: the series-major Rhat accumulator, kept as the
// bit-identity oracle of rhat.go. It stores every retained observation
// series-major — series (v, c) owns a fixed retain-long int32 row
// allocated up front — and reads the lattice cell by cell through
// Lattice.Get. Its split R̂ and ESS form the integer sums of the kernel's
// contract naively, series by series and lag by lag — per chain and half
// Σx and Σx², and per lag N_l = Σ_c [L²·P_{c,l} − L·S_c·(F_{c,l} +
// G_{c,l}) + (L−l)·S_c²] from its own P, F and G — and finish them with
// the kernel's float64 formulas in the kernel's order. So the time-major
// accumulator, whichever kernel loads a vertex, must report the same bits
// for every statistic on every vertex; rhat_oracle_test.go checks that.
// floatSplitAt and floatESSAt keep the float64 formulas the kernel had
// before its sums became integers (deviations from float means, summed in
// time order), against which rhat_oracle_test.go bounds the rounding the
// change moved.

import (
	"fmt"
	"math"
)

// rhatRef accumulates per-(vertex, chain) observation statistics of a
// multi-chain engine's state and reports the Gelman–Rubin statistic
// (classic and split forms) and the effective sample size per vertex. It
// works with any MultiChain — the chromatic Batch and the batched
// LubyGlauber and LocalMetropolis engines alike.
type rhatRef struct {
	m     MultiChain
	n     int
	count int
	// mean and m2 are chain-major like the lattice: entry v*B+c carries
	// chain c's running mean / centered second moment at vertex v.
	mean []float64
	m2   []float64

	// obs is the thinned observation buffer: series (v, c) occupies
	// obs[(v*B+c)*retain : (v*B+c)*retain+rlen], evenly spaced every
	// `stride` observations across the history, most recent last.
	obs    []int32
	retain int
	rlen   int
	stride int
	skip   int

	// seqMean/seqVar are the 2B-sequence scratch of the split statistic,
	// reused across vertices so Worst-style sweeps do not allocate.
	seqMean []float64
	seqVar  []float64
}

// newRhatRef returns an empty accumulator retaining at most `retain`
// thinned observations per (vertex, chain) series. retain must be an even
// number ≥ 8 (thinning halves the buffer in place).
func newRhatRef(m MultiChain, retain int) (*rhatRef, error) {
	if m.Chains() < 2 {
		return nil, fmt.Errorf("sampler: Gelman–Rubin needs ≥ 2 chains, engine has %d", m.Chains())
	}
	if retain < 8 || retain%2 != 0 {
		return nil, fmt.Errorf("sampler: observation buffer capacity must be an even number ≥ 8, got %d", retain)
	}
	n := m.Lattice().N()
	B := m.Chains()
	return &rhatRef{
		m:       m,
		n:       n,
		mean:    make([]float64, n*B),
		m2:      make([]float64, n*B),
		obs:     make([]int32, n*B*retain),
		retain:  retain,
		stride:  1,
		seqMean: make([]float64, 2*B),
		seqVar:  make([]float64, 2*B),
	}, nil
}

// Observe folds the engine's current state into the running moments and,
// on retention strides, into the observation buffer. Call it between Run
// chunks (e.g. once per sweep-equivalent).
func (r *rhatRef) Observe() {
	r.count++
	B := r.m.Chains()
	lat := r.m.Lattice()
	keep := r.skip == 0
	for v := 0; v < r.n; v++ {
		row := r.mean[v*B : (v+1)*B]
		m2 := r.m2[v*B : (v+1)*B]
		for c := 0; c < B; c++ {
			x := lat.Get(v, c)
			xf := float64(x)
			d := xf - row[c]
			row[c] += d / float64(r.count)
			m2[c] += d * (xf - row[c])
			if keep {
				r.obs[(v*B+c)*r.retain+r.rlen] = int32(x)
			}
		}
	}
	if !keep {
		r.skip--
		return
	}
	r.rlen++
	if r.rlen == r.retain {
		// Thin: keep every other retained observation (the most recent one
		// stays retained), double the stride. The retained set remains the
		// multiples of the stride, so the series stays evenly spaced.
		half := r.retain / 2
		for s := 0; s < r.n*B; s++ {
			row := r.obs[s*r.retain : (s+1)*r.retain]
			for i := 0; i < half; i++ {
				row[i] = row[2*i+1]
			}
		}
		r.rlen = half
		r.stride *= 2
	}
	r.skip = r.stride - 1
}

// Count returns the number of observations folded in so far.
func (r *rhatRef) Count() int { return r.count }

// Retained returns the number of thinned observations currently buffered
// per (vertex, chain) series and their spacing in observations.
func (r *rhatRef) Retained() (length, stride int) { return r.rlen, r.stride }

// SplitReady reports whether enough observations are buffered for the
// split statistic and the effective sample size (≥ 4 retained).
func (r *rhatRef) SplitReady() bool { return r.rlen >= 4 }

// series returns the retained observation series of (v, c).
func (r *rhatRef) series(v, c int) []int32 {
	B := r.m.Chains()
	off := (v*B + c) * r.retain
	return r.obs[off : off+r.rlen]
}

// At returns the classic whole-chain Gelman–Rubin statistic of vertex v
// over the observations so far. A vertex with zero variance everywhere
// (pinned, or a frozen degree of freedom) reports exactly 1; zero
// within-chain variance with disagreeing chains reports +Inf. At least two
// observations are required.
func (r *rhatRef) At(v int) (float64, error) {
	if r.count < 2 {
		return 0, fmt.Errorf("sampler: Gelman–Rubin needs ≥ 2 observations, have %d", r.count)
	}
	B := r.m.Chains()
	T := float64(r.count)
	means := r.mean[v*B : (v+1)*B]
	m2 := r.m2[v*B : (v+1)*B]
	grand := 0.0
	for _, m := range means {
		grand += m
	}
	grand /= float64(B)
	within, between := 0.0, 0.0
	for c := 0; c < B; c++ {
		within += m2[c] / (T - 1)
		d := means[c] - grand
		between += d * d
	}
	within /= float64(B)
	between = between * T / float64(B-1)
	if within == 0 {
		if between == 0 {
			return 1, nil
		}
		return math.Inf(1), nil
	}
	varPlus := (T-1)/T*within + between/T
	return math.Sqrt(varPlus / within), nil
}

// SplitAt returns the split Gelman–Rubin statistic of vertex v: every
// retained chain series is split into first and second halves, and the
// classic statistic is computed over the resulting 2B sequences — so a
// chain drifting within itself (e.g. wandering between modes) inflates
// the statistic even when whole-chain means agree. Conventions match At:
// all-constant sequences report exactly 1, zero within-sequence variance
// with disagreeing sequences reports +Inf. SplitReady must hold. Each half
// contributes its mean S/m, and the half variances sum to Σ_h (m·Q_h −
// S_h²)/(m(m−1)), one quotient of integer sums.
func (r *rhatRef) SplitAt(v int) (float64, error) {
	if !r.SplitReady() {
		return 0, fmt.Errorf("sampler: split R̂ needs ≥ 4 retained observations, have %d", r.rlen)
	}
	B := r.m.Chains()
	m := r.rlen / 2
	mf := float64(m)
	nseq := 2 * B
	grand := 0.0
	var num int64
	for c := 0; c < B; c++ {
		s := r.series(v, c)
		halves := [2][]int32{s[:m], s[len(s)-m:]}
		for h, seq := range halves {
			var sum, sq int64
			for _, x := range seq {
				sum += int64(x)
				sq += int64(x) * int64(x)
			}
			mean := float64(sum) / mf
			r.seqMean[2*c+h] = mean
			num += int64(m)*sq - sum*sum
			grand += mean
		}
	}
	grand /= float64(nseq)
	within := float64(num) / float64(m*(m-1))
	between := 0.0
	for i := 0; i < nseq; i++ {
		d := r.seqMean[i] - grand
		between += d * d
	}
	within /= float64(nseq)
	between = between * mf / float64(nseq-1)
	if within == 0 {
		if between == 0 {
			return 1, nil
		}
		return math.Inf(1), nil
	}
	varPlus := (mf-1)/mf*within + between/mf
	return math.Sqrt(varPlus / within), nil
}

// ESSAt returns the effective sample size of vertex v pooled across
// chains: B·T/τ, where τ is the integrated autocorrelation time estimated
// on the retained series by Geyer's initial-monotone-sequence rule over
// the multi-chain autocorrelations (the Stan estimator: within-chain
// autocovariances against the pooled var⁺, so chains frozen at different
// values drive the ESS to 0 rather than hiding in per-chain terms). When
// the buffer has thinned, the estimate is scaled by the retention stride —
// the retained series stands in for the evenly spaced history it samples.
// A vertex with no variance anywhere (pinned, or frozen identically in
// every chain) is perfectly estimated and reports the full pooled count
// B·Count. SplitReady must hold. Each chain contributes its mean S/L, W is
// Σ_c (L·Q_c − S_c²)/(B·L(L−1)), one quotient of integer sums, and the
// lag-l autocovariance is N_l/(B·L³).
func (r *rhatRef) ESSAt(v int) (float64, error) {
	if !r.SplitReady() {
		return 0, fmt.Errorf("sampler: ESS needs ≥ 4 retained observations, have %d", r.rlen)
	}
	B := r.m.Chains()
	L := r.rlen
	Lf := float64(L)
	total := float64(B) * float64(r.count)
	means := r.seqMean[:B]
	sums := make([]int64, B)
	grand := 0.0
	var num int64
	for c := 0; c < B; c++ {
		var sum, sq int64
		for _, x := range r.series(v, c) {
			sum += int64(x)
			sq += int64(x) * int64(x)
		}
		sums[c] = sum
		mean := float64(sum) / Lf
		means[c] = mean
		grand += mean
		num += int64(L)*sq - sum*sum
	}
	grand /= float64(B)
	W := float64(num) / float64(B*L*(L-1))
	between := 0.0
	for c := 0; c < B; c++ {
		d := means[c] - grand
		between += d * d
	}
	between /= float64(B - 1)
	varPlus := (Lf-1)/Lf*W + between
	if varPlus == 0 {
		// Frozen everywhere: the constant is known exactly.
		return total, nil
	}
	if W == 0 {
		// Chains frozen apart: no amount of further observation helps.
		return 0, nil
	}
	// gamma(l): within-chain autocovariance at lag l, averaged over chains
	// (biased 1/L scaling, per the standard estimator), from N_l.
	gamma := func(l int) float64 {
		L64 := int64(L)
		var n int64
		for c := 0; c < B; c++ {
			series := r.series(v, c)
			var p, f, g int64
			for t := 0; t+l < L; t++ {
				p += int64(series[t]) * int64(series[t+l])
				f += int64(series[t])
				g += int64(series[t+l])
			}
			s := sums[c]
			n += L64*L64*p - L64*s*(f+g) + (L64-int64(l))*s*s
		}
		return float64(n) / float64(int64(B)*L64*L64*L64)
	}
	rho := func(l int) float64 { return 1 - (W-gamma(l))/varPlus }
	// Geyer: sum lag-pair autocorrelations while the pair sums stay
	// non-negative, enforcing monotone non-increase.
	sum, prev := 0.0, math.Inf(1)
	for k := 1; k+1 < L; k += 2 {
		p := rho(k) + rho(k+1)
		if p < 0 {
			break
		}
		if p > prev {
			p = prev
		}
		prev = p
		sum += p
	}
	tau := 1 + 2*sum
	ess := float64(B) * float64(r.stride*L) / tau
	return math.Min(ess, total), nil
}

// floatSplitAt is SplitAt in the float64 formulas the kernel used before
// its sums became integers: each half's variance sums the squared
// deviations from its float mean in time order.
func (r *rhatRef) floatSplitAt(v int) (float64, error) {
	if !r.SplitReady() {
		return 0, fmt.Errorf("sampler: split R̂ needs ≥ 4 retained observations, have %d", r.rlen)
	}
	B := r.m.Chains()
	m := r.rlen / 2
	mf := float64(m)
	nseq := 2 * B
	grand := 0.0
	for c := 0; c < B; c++ {
		s := r.series(v, c)
		halves := [2][]int32{s[:m], s[len(s)-m:]}
		for h, seq := range halves {
			sum := 0.0
			for _, x := range seq {
				sum += float64(x)
			}
			mean := sum / mf
			vsum := 0.0
			for _, x := range seq {
				d := float64(x) - mean
				vsum += d * d
			}
			r.seqMean[2*c+h] = mean
			r.seqVar[2*c+h] = vsum / (mf - 1)
			grand += mean
		}
	}
	grand /= float64(nseq)
	within, between := 0.0, 0.0
	for i := 0; i < nseq; i++ {
		within += r.seqVar[i]
		d := r.seqMean[i] - grand
		between += d * d
	}
	within /= float64(nseq)
	between = between * mf / float64(nseq-1)
	if within == 0 {
		if between == 0 {
			return 1, nil
		}
		return math.Inf(1), nil
	}
	varPlus := (mf-1)/mf*within + between/mf
	return math.Sqrt(varPlus / within), nil
}

// floatESSAt is ESSAt in the float64 formulas the kernel used before its
// sums became integers: W sums each chain's squared deviations from its
// float mean, and each lag's autocovariance the products of deviations, in
// time order.
func (r *rhatRef) floatESSAt(v int) (float64, error) {
	if !r.SplitReady() {
		return 0, fmt.Errorf("sampler: ESS needs ≥ 4 retained observations, have %d", r.rlen)
	}
	B := r.m.Chains()
	L := r.rlen
	Lf := float64(L)
	total := float64(B) * float64(r.count)
	means := r.seqMean[:B]
	grand, W := 0.0, 0.0
	for c := 0; c < B; c++ {
		s := r.series(v, c)
		sum := 0.0
		for _, x := range s {
			sum += float64(x)
		}
		mean := sum / Lf
		means[c] = mean
		grand += mean
		vsum := 0.0
		for _, x := range s {
			d := float64(x) - mean
			vsum += d * d
		}
		W += vsum / (Lf - 1)
	}
	grand /= float64(B)
	W /= float64(B)
	between := 0.0
	for c := 0; c < B; c++ {
		d := means[c] - grand
		between += d * d
	}
	between /= float64(B - 1)
	varPlus := (Lf-1)/Lf*W + between
	if varPlus == 0 {
		// Frozen everywhere: the constant is known exactly.
		return total, nil
	}
	if W == 0 {
		// Chains frozen apart: no amount of further observation helps.
		return 0, nil
	}
	// gamma(l): within-chain autocovariance at lag l, averaged over chains
	// (biased 1/L scaling, per the standard estimator).
	gamma := func(l int) float64 {
		s := 0.0
		for c := 0; c < B; c++ {
			series := r.series(v, c)
			mc := means[c]
			for t := 0; t+l < L; t++ {
				s += (float64(series[t]) - mc) * (float64(series[t+l]) - mc)
			}
		}
		return s / (float64(B) * Lf)
	}
	rho := func(l int) float64 { return 1 - (W-gamma(l))/varPlus }
	// Geyer: sum lag-pair autocorrelations while the pair sums stay
	// non-negative, enforcing monotone non-increase.
	sum, prev := 0.0, math.Inf(1)
	for k := 1; k+1 < L; k += 2 {
		p := rho(k) + rho(k+1)
		if p < 0 {
			break
		}
		if p > prev {
			p = prev
		}
		prev = p
		sum += p
	}
	tau := 1 + 2*sum
	ess := float64(B) * float64(r.stride*L) / tau
	return math.Min(ess, total), nil
}

// Worst returns the vertex with the largest whole-chain R̂ and its value.
func (r *rhatRef) Worst() (v int, rhat float64, err error) {
	return r.worstOf(r.At)
}

// WorstSplit returns the vertex with the largest split R̂ and its value —
// the headline convergence number of the adaptive driver (all chains
// converged ⇒ every vertex near 1).
func (r *rhatRef) WorstSplit() (v int, rhat float64, err error) {
	return r.worstOf(r.SplitAt)
}

func (r *rhatRef) worstOf(at func(int) (float64, error)) (v int, rhat float64, err error) {
	if r.n == 0 {
		return 0, 1, nil
	}
	v, rhat = -1, math.Inf(-1)
	for u := 0; u < r.n; u++ {
		x, aerr := at(u)
		if aerr != nil {
			return 0, 0, aerr
		}
		if x > rhat {
			v, rhat = u, x
		}
	}
	return v, rhat, nil
}

// MinESS returns the vertex with the smallest effective sample size and
// its value — the bottleneck against a min-ESS target. An empty instance
// reports the full pooled count.
func (r *rhatRef) MinESS() (v int, ess float64, err error) {
	if r.n == 0 {
		return 0, float64(r.m.Chains()) * float64(r.count), nil
	}
	v, ess = -1, math.Inf(1)
	for u := 0; u < r.n; u++ {
		x, aerr := r.ESSAt(u)
		if aerr != nil {
			return 0, 0, aerr
		}
		if x < ess {
			v, ess = u, x
		}
	}
	return v, ess, nil
}
