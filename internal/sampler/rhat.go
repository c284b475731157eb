package sampler

// rhat.go: the cross-chain convergence diagnostics on the batched engines.
// B independent lockstep chains are exactly the input the potential scale
// reduction factor R̂ wants: for each vertex, the between-chain variance of
// the per-chain means is compared against the mean within-chain variance;
// R̂ ≈ 1 once every chain explores the same distribution, and values well
// above 1 flag unconverged sweeps. Symbols are treated as numeric scores
// (the standard practice for categorical chains — a heuristic but
// effective stall detector; for q = 2 models it is exactly the
// indicator-mean diagnostic). Per-vertex values are exposed, and the worst
// vertex is the headline number cmd/lsample and the internal/run driver
// report.
//
// Two accumulation structures back the diagnostics:
//
//   - running Welford moments per (vertex, chain), numerically stable over
//     any number of observations, behind the classic whole-chain statistic
//     (At, Worst);
//   - a bounded, evenly thinned buffer of lattice snapshots, behind the
//     split statistic (SplitAt, WorstSplit — each retained chain series is
//     split into halves, so a chain that wandered between two modes shows
//     up even when the whole-chain means agree) and the per-vertex
//     effective sample size (ESSAt, MinESS — Geyer initial-monotone
//     autocorrelation sums on the retained series).
//
// The buffer is time-major: retained snapshot i is one copy of the
// lattice's raw cell block, laid out like the lattice (cell v*B+c), one
// byte per cell on compact lattices and an int32 per cell on wide ones.
// Observe therefore costs one pass over the lattice. The buffer grows by
// doubling as observations arrive, up to a fixed number of snapshots; when
// it fills, every other snapshot is dropped (snapshot 2i+1 moves to i) and
// the retention stride doubles, so the retained series stays evenly
// spaced across the whole history and memory stays bounded no matter how
// long the run. The split statistic and the ESS gather one vertex's series
// at a time into a reused chain-major float64 scratch.
//
// Every statistic is bit-identical (same vertex, same math.Float64bits) to
// the earlier series-major layout, which stored each (vertex, chain)
// series in its own fixed-length row: the same values meet the same
// floating-point operations in the same order. rhatref_test.go keeps that
// layout as the test oracle.

import (
	"fmt"
	"math"

	"repro/internal/dist"
)

// DefaultRetain is the observation-buffer capacity in snapshots: enough
// resolution for the split and autocorrelation statistics. A snapshot
// costs one byte per cell on compact lattices, so the buffer holds at most
// DefaultRetain·n·B bytes and reaches that only after DefaultRetain
// observations: a drive that stops after T ≤ DefaultRetain sweeps retains
// T·n·B bytes, in a buffer of less than twice that.
const DefaultRetain = 256

// Rhat accumulates per-(vertex, chain) observation statistics of a
// multi-chain engine's state and reports the Gelman–Rubin statistic
// (classic and split forms) and the effective sample size per vertex. It
// works with any MultiChain — the chromatic Batch and the batched
// LubyGlauber and LocalMetropolis engines alike. Memory is the 16·n·B
// bytes of running moments plus the snapshot buffer, which holds one byte
// per cell per retained observation (four on wide lattices).
type Rhat struct {
	m MultiChain
	// n and b are the vertex and chain counts, read once; cells = n·b is
	// one snapshot's length.
	n, b, cells int
	count       int
	// mean and m2 are chain-major like the lattice: entry v*B+c carries
	// chain c's running mean / centered second moment at vertex v.
	mean []float64
	m2   []float64

	// The thinned snapshot buffer: snapshot i occupies
	// snaps[i*cells:(i+1)*cells] of snaps8 (compact lattices) or snapsW
	// (wide lattices; the other stays nil). Snapshots are evenly spaced
	// every `stride` observations across the history, most recent last.
	compact bool
	snaps8  []uint8
	snapsW  []int32
	retain  int
	rlen    int
	stride  int
	skip    int

	// series is one vertex's gathered history, chain-major: chain c's
	// retained series at series[c*rlen:(c+1)*rlen]. seqMean/seqVar are the
	// 2B-sequence scratch of the split statistic. All are reused across
	// vertices so Worst-style sweeps do not allocate.
	series  []float64
	seqMean []float64
	seqVar  []float64
}

// NewRhat returns an empty accumulator for the multi-chain engine with the
// default observation-buffer capacity. The diagnostics need at least two
// chains.
func NewRhat(m MultiChain) (*Rhat, error) { return newRhat(m, DefaultRetain) }

// newRhat returns an empty accumulator retaining at most `retain` thinned
// snapshots. retain must be an even number ≥ 8 (thinning halves the
// buffer in place).
func newRhat(m MultiChain, retain int) (*Rhat, error) {
	B := m.Chains()
	if B < 2 {
		return nil, fmt.Errorf("sampler: Gelman–Rubin needs ≥ 2 chains, engine has %d", B)
	}
	if retain < 8 || retain%2 != 0 {
		return nil, fmt.Errorf("sampler: observation buffer capacity must be an even number ≥ 8, got %d", retain)
	}
	lat := m.Lattice()
	n := lat.N()
	return &Rhat{
		m:       m,
		n:       n,
		b:       B,
		cells:   n * B,
		mean:    make([]float64, n*B),
		m2:      make([]float64, n*B),
		compact: lat.Compact(),
		retain:  retain,
		stride:  1,
		seqMean: make([]float64, 2*B),
		seqVar:  make([]float64, 2*B),
	}, nil
}

// cell8 decodes a compact cell: symbols are themselves and the 0xFF
// sentinel is dist.Unset, exactly as state.Lattice.Get reads them.
var cell8 = func() (t [256]float64) {
	for x := range t {
		t[x] = float64(x)
	}
	t[0xFF] = dist.Unset
	return t
}()

// Observe folds the engine's current state into the running moments and,
// on retention strides, appends it to the snapshot buffer. Call it between
// Run chunks (e.g. once per sweep-equivalent).
func (r *Rhat) Observe() {
	r.count++
	cnt := float64(r.count)
	lat := r.m.Lattice()
	keep := r.skip == 0
	mean, m2 := r.mean[:r.cells], r.m2[:r.cells]
	if r.compact {
		raw := lat.Raw8()[:r.cells]
		for i, x := range raw {
			xf := cell8[x]
			d := xf - mean[i]
			mean[i] += d / cnt
			m2[i] += d * (xf - mean[i])
		}
		if keep {
			r.snaps8 = grow(r.snaps8, r.cells, r.retain)
			copy(r.snaps8[r.rlen*r.cells:], raw)
		}
	} else {
		raw := lat.RawWide()[:r.cells]
		for i, x := range raw {
			xf := float64(x)
			d := xf - mean[i]
			mean[i] += d / cnt
			m2[i] += d * (xf - mean[i])
		}
		if keep {
			r.snapsW = grow(r.snapsW, r.cells, r.retain)
			snap := r.snapsW[r.rlen*r.cells:]
			for i, x := range raw {
				snap[i] = int32(x)
			}
		}
	}
	if !keep {
		r.skip--
		return
	}
	r.rlen++
	if r.rlen == r.retain {
		// Thin: keep every other retained snapshot (the most recent one
		// stays retained), double the stride. The retained set remains the
		// multiples of the stride, so the series stays evenly spaced.
		half := r.retain / 2
		if r.compact {
			r.snaps8 = thin(r.snaps8, r.cells, half)
		} else {
			r.snapsW = thin(r.snapsW, r.cells, half)
		}
		r.rlen = half
		r.stride *= 2
	}
	r.skip = r.stride - 1
}

// grow extends buf, which holds whole snapshots of `cells` cells, by one
// snapshot. A full buffer moves to one of twice the snapshots (at most
// retain): with a power-of-two retain such as DefaultRetain, a run's
// buffer allocations total less than twice the full buffer, and none
// happen once it holds retain snapshots.
func grow[T uint8 | int32](buf []T, cells, retain int) []T {
	n := len(buf) + cells
	if n <= cap(buf) {
		return buf[:n]
	}
	snaps := min(max(1, 2*(cap(buf)/cells)), retain)
	grown := make([]T, n, snaps*cells)
	copy(grown, buf)
	return grown
}

// thin moves snapshot 2i+1 to slot i for every i < half and drops the rest.
func thin[T uint8 | int32](buf []T, cells, half int) []T {
	for i := 0; i < half; i++ {
		copy(buf[i*cells:(i+1)*cells], buf[(2*i+1)*cells:(2*i+2)*cells])
	}
	return buf[:half*cells]
}

// gather copies vertex v's retained series into the chain-major scratch —
// chain c's series at y[c*L:(c+1)*L], oldest first — and returns it.
func (r *Rhat) gather(v int) []float64 {
	B, L := r.b, r.rlen
	if cap(r.series) < B*L {
		// Sized ahead like the snapshot buffer, so growth is as rare.
		r.series = make([]float64, B*min(2*L, r.retain))
	}
	y := r.series[:B*L]
	off := v * B
	if r.compact {
		for t := 0; t < L; t++ {
			at := t*r.cells + off
			for c, x := range r.snaps8[at : at+B] {
				y[c*L+t] = cell8[x]
			}
		}
		return y
	}
	for t := 0; t < L; t++ {
		at := t*r.cells + off
		for c, x := range r.snapsW[at : at+B] {
			y[c*L+t] = float64(x)
		}
	}
	return y
}

// Count returns the number of observations folded in so far.
func (r *Rhat) Count() int { return r.count }

// Retained returns the number of thinned observations currently buffered
// per (vertex, chain) series and their spacing in observations.
func (r *Rhat) Retained() (length, stride int) { return r.rlen, r.stride }

// SplitReady reports whether enough observations are buffered for the
// split statistic and the effective sample size (≥ 4 retained).
func (r *Rhat) SplitReady() bool { return r.rlen >= 4 }

// At returns the classic whole-chain Gelman–Rubin statistic of vertex v
// over the observations so far. A vertex with zero variance everywhere
// (pinned, or a frozen degree of freedom) reports exactly 1; zero
// within-chain variance with disagreeing chains reports +Inf. At least two
// observations are required.
func (r *Rhat) At(v int) (float64, error) {
	if r.count < 2 {
		return 0, fmt.Errorf("sampler: Gelman–Rubin needs ≥ 2 observations, have %d", r.count)
	}
	B := r.b
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
// with disagreeing sequences reports +Inf. SplitReady must hold.
func (r *Rhat) SplitAt(v int) (float64, error) {
	if !r.SplitReady() {
		return 0, fmt.Errorf("sampler: split R̂ needs ≥ 4 retained observations, have %d", r.rlen)
	}
	B, L := r.b, r.rlen
	y := r.gather(v)
	m := L / 2
	mf := float64(m)
	nseq := 2 * B
	grand := 0.0
	for c := 0; c < B; c++ {
		s := y[c*L : (c+1)*L]
		halves := [2][]float64{s[:m], s[L-m:]}
		for h, seq := range halves {
			sum := 0.0
			for _, x := range seq {
				sum += x
			}
			mean := sum / mf
			vsum := 0.0
			for _, x := range seq {
				d := x - mean
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
// B·Count. SplitReady must hold.
func (r *Rhat) ESSAt(v int) (float64, error) {
	if !r.SplitReady() {
		return 0, fmt.Errorf("sampler: ESS needs ≥ 4 retained observations, have %d", r.rlen)
	}
	B, L := r.b, r.rlen
	Lf := float64(L)
	total := float64(B) * float64(r.count)
	y := r.gather(v)
	means := r.seqMean[:B]
	grand, W := 0.0, 0.0
	for c := 0; c < B; c++ {
		s := y[c*L : (c+1)*L]
		sum := 0.0
		for _, x := range s {
			sum += x
		}
		mean := sum / Lf
		means[c] = mean
		grand += mean
		// Center the series in place: the autocovariances below read the
		// centered values.
		vsum := 0.0
		for t, x := range s {
			d := x - mean
			s[t] = d
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
	// gammaPair(l) returns the within-chain autocovariances at lags l and
	// l+1, averaged over chains (biased 1/L scaling, per the standard
	// estimator). Each is one dot product of the centered series against
	// itself shifted, summed chain by chain in time order; the two run in
	// one pass as independent sums, and l+1 < L.
	gammaPair := func(l int) (float64, float64) {
		s0, s1 := 0.0, 0.0
		n := L - l - 1 // terms at lag l+1; lag l has one more
		for c := 0; c < B; c++ {
			yc := y[c*L : (c+1)*L]
			a, b0, b1 := yc[:n], yc[l:l+n], yc[l+1:l+1+n]
			for t, x := range a {
				s0 += x * b0[t]
				s1 += x * b1[t]
			}
			s0 += yc[n] * yc[L-1]
		}
		d := float64(B) * Lf
		return s0 / d, s1 / d
	}
	// Geyer: sum lag-pair autocorrelations while the pair sums stay
	// non-negative, enforcing monotone non-increase.
	sum, prev := 0.0, math.Inf(1)
	for k := 1; k+1 < L; k += 2 {
		g0, g1 := gammaPair(k)
		p := (1 - (W-g0)/varPlus) + (1 - (W-g1)/varPlus)
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
func (r *Rhat) Worst() (v int, rhat float64, err error) {
	return r.worstOf(r.At)
}

// WorstSplit returns the vertex with the largest split R̂ and its value —
// the headline convergence number of the adaptive driver (all chains
// converged ⇒ every vertex near 1).
func (r *Rhat) WorstSplit() (v int, rhat float64, err error) {
	return r.worstOf(r.SplitAt)
}

func (r *Rhat) worstOf(at func(int) (float64, error)) (v int, rhat float64, err error) {
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
func (r *Rhat) MinESS() (v int, ess float64, err error) {
	if r.n == 0 {
		return 0, float64(r.b) * float64(r.count), nil
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
