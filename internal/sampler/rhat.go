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
// long the run.
//
// Reading the buffer is one kernel per vertex (vertexStats): it gathers
// the vertex's series once into a chain-major float64 scratch, takes one
// sum pass and one deviation pass per chain, and yields the split
// statistic and the ESS together; SplitAt and ESSAt are views of it. A
// convergence check (Check) is one pass of that kernel over every vertex,
// cut into contiguous vertex blocks that run on every core, each with its
// own scratch, and folded in vertex order — the diagnostics draw no random
// numbers, so the result does not depend on GOMAXPROCS or on the engines'
// worker count.
//
// Every statistic is bit-identical (same vertex, same math.Float64bits) to
// the earlier series-major layout, which stored each (vertex, chain)
// series in its own fixed-length row and ran each statistic on its own:
// the same values meet the same floating-point operations in the same
// order, or, where a sum of integer cells is regrouped, an order that is
// exact either way. rhatref_test.go keeps that layout as the test oracle.

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/dist"
	"repro/internal/psample"
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
// per cell per retained observation (four on wide lattices), plus at most
// 8·B·DefaultRetain bytes of kernel scratch per check block.
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

	// blocks are the vertex blocks of a check, kept across checks so a
	// check allocates nothing once they are sized; wg waits for the
	// goroutines of a check's blocks.
	blocks []*checkBlock
	wg     sync.WaitGroup
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

// vertexScratch is the reusable scratch of the per-vertex kernel: one
// vertex's gathered history, chain-major (chain c's retained series at
// series[c*rlen:(c+1)*rlen]), the 2B half-sequence means and variances of
// the split statistic, and the B chain means of the ESS.
type vertexScratch struct {
	series    []float64
	seqMean   []float64
	seqVar    []float64
	chainMean []float64
}

// gather copies vertex v's retained series into the scratch, chain c's
// series at y[c*L:(c+1)*L], oldest first, and returns it.
func (r *Rhat) gather(v int, sc *vertexScratch) []float64 {
	B, L := r.b, r.rlen
	if cap(sc.series) < B*L {
		// Sized ahead like the snapshot buffer, so growth is as rare.
		sc.series = make([]float64, B*min(2*L, r.retain))
	}
	y := sc.series[:B*L]
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

// ready returns nil when SplitReady holds and otherwise an error naming
// the statistic that needs it.
func (r *Rhat) ready(what string) error {
	if r.SplitReady() {
		return nil
	}
	return fmt.Errorf("sampler: %s needs ≥ 4 retained observations, have %d", what, r.rlen)
}

// At returns the classic whole-chain Gelman–Rubin statistic of vertex v
// over the observations so far. A vertex with zero variance everywhere
// (pinned, or a frozen degree of freedom) reports exactly 1; zero
// within-chain variance with disagreeing chains reports +Inf. At least two
// observations are required.
func (r *Rhat) At(v int) (float64, error) {
	if err := r.observed(); err != nil {
		return 0, err
	}
	return r.at(v), nil
}

// observed returns nil when the whole-chain statistic has its two
// observations and otherwise the error saying so.
func (r *Rhat) observed() error {
	if r.count >= 2 {
		return nil
	}
	return fmt.Errorf("sampler: Gelman–Rubin needs ≥ 2 observations, have %d", r.count)
}

// at is At without the observation-count check.
func (r *Rhat) at(v int) float64 {
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
	return psrf(within, between, B, T)
}

// psrf is the potential scale reduction factor of k sequences of n
// observations each, from the sum of their within-sequence variances and
// the sum of squared deviations of their means from the grand mean. All
// sequences constant and equal report exactly 1; zero within-sequence
// variance with disagreeing sequences reports +Inf.
func psrf(within, between float64, k int, n float64) float64 {
	within /= float64(k)
	between = between * n / float64(k-1)
	if within == 0 {
		if between == 0 {
			return 1
		}
		return math.Inf(1)
	}
	varPlus := (n-1)/n*within + between/n
	return math.Sqrt(varPlus / within)
}

// SplitAt returns the split Gelman–Rubin statistic of vertex v: every
// retained chain series is split into first and second halves, and the
// classic statistic is computed over the resulting 2B sequences — so a
// chain drifting within itself (e.g. wandering between modes) inflates
// the statistic even when whole-chain means agree. Conventions match At:
// all-constant sequences report exactly 1, zero within-sequence variance
// with disagreeing sequences reports +Inf. SplitReady must hold.
func (r *Rhat) SplitAt(v int) (float64, error) {
	if err := r.ready("split R̂"); err != nil {
		return 0, err
	}
	split, _ := r.vertexStats(v, &r.block(0).vertexScratch)
	return split, nil
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
	if err := r.ready("ESS"); err != nil {
		return 0, err
	}
	_, ess := r.vertexStats(v, &r.block(0).vertexScratch)
	return ess, nil
}

// vertexStats is the per-vertex kernel behind SplitAt, ESSAt and Check: it
// gathers vertex v's retained series once and returns its split R̂ and its
// effective sample size. SplitReady must hold.
//
// Each chain takes one sum pass and one deviation pass. The sum pass adds
// up the two halves; the whole-series sum is first half + odd middle cell
// + second half. Every cell is an int32 integer (a symbol, or Unset = −1)
// and a series holds at most the buffer capacity of them (DefaultRetain,
// far below the 2²² at which a sum could leave float64's exact integers),
// so every partial sum is exact and this regrouping equals the sequential
// sum bit for bit. The deviation pass feeds three independent
// accumulators, each in time order: the two half variances about the half
// means, and the whole-chain variance about the chain mean, which also
// centres the series in place for the autocovariances.
func (r *Rhat) vertexStats(v int, sc *vertexScratch) (split, ess float64) {
	B, L := r.b, r.rlen
	y := r.gather(v, sc)
	m := L / 2
	mf, Lf := float64(m), float64(L)
	seqMean, seqVar, means := sc.seqMean, sc.seqVar, sc.chainMean
	splitGrand, grand, W := 0.0, 0.0, 0.0
	for c := 0; c < B; c++ {
		s := y[c*L : (c+1)*L]
		first, second := s[:m], s[L-m:]
		sumA, sumB := 0.0, 0.0
		for _, x := range first {
			sumA += x
		}
		for _, x := range second {
			sumB += x
		}
		sum := sumA + sumB
		if L%2 == 1 {
			sum += s[m]
		}
		meanA, meanB, mean := sumA/mf, sumB/mf, sum/Lf
		varA, varB, vsum := 0.0, 0.0, 0.0
		for t, x := range first {
			d := x - meanA
			varA += d * d
			d = x - mean
			first[t] = d
			vsum += d * d
		}
		if L%2 == 1 {
			d := s[m] - mean
			s[m] = d
			vsum += d * d
		}
		for t, x := range second {
			d := x - meanB
			varB += d * d
			d = x - mean
			second[t] = d
			vsum += d * d
		}
		seqMean[2*c], seqMean[2*c+1] = meanA, meanB
		seqVar[2*c], seqVar[2*c+1] = varA/(mf-1), varB/(mf-1)
		// Two adds, not one of meanA + meanB: the split statistic's grand
		// mean sums the 2B half means one at a time.
		splitGrand += meanA
		splitGrand += meanB
		means[c] = mean
		grand += mean
		W += vsum / (Lf - 1)
	}

	// Split R̂ over the 2B half sequences.
	nseq := 2 * B
	splitGrand /= float64(nseq)
	within, between := 0.0, 0.0
	for i := 0; i < nseq; i++ {
		within += seqVar[i]
		d := seqMean[i] - splitGrand
		between += d * d
	}
	split = psrf(within, between, nseq, mf)

	// ESS over the B centred whole-chain series.
	total := float64(B) * float64(r.count)
	grand /= float64(B)
	W /= float64(B)
	between = 0.0
	for c := 0; c < B; c++ {
		d := means[c] - grand
		between += d * d
	}
	between /= float64(B - 1)
	varPlus := (Lf-1)/Lf*W + between
	if varPlus == 0 {
		// Frozen everywhere: the constant is known exactly.
		return split, total
	}
	if W == 0 {
		// Chains frozen apart: no amount of further observation helps.
		return split, 0
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
	ess = float64(B) * float64(r.stride*L) / tau
	return split, math.Min(ess, total)
}

// Diagnostics is one convergence check over every vertex: the worst
// whole-chain R̂, the worst split R̂ and the smallest effective sample
// size, each with the vertex attaining it (the lowest such vertex on
// ties).
type Diagnostics struct {
	Rhat        float64
	WorstVertex int
	SplitRhat   float64
	SplitVertex int
	ESS         float64
	ESSVertex   int
}

// fold takes each statistic of o that is strictly worse than d's, so
// folding in vertex order keeps the lowest vertex on ties.
func (d *Diagnostics) fold(o Diagnostics) {
	if o.Rhat > d.Rhat {
		d.Rhat, d.WorstVertex = o.Rhat, o.WorstVertex
	}
	if o.SplitRhat > d.SplitRhat {
		d.SplitRhat, d.SplitVertex = o.SplitRhat, o.SplitVertex
	}
	if o.ESS < d.ESS {
		d.ESS, d.ESSVertex = o.ESS, o.ESSVertex
	}
}

// checkBlock is one contiguous vertex block of a check: the kernel
// scratch, the block's range and result, and the entry point that scans
// it on its own goroutine, bound once so a check allocates nothing.
type checkBlock struct {
	vertexScratch
	lo, hi int
	d      Diagnostics
	run    func()
}

// block returns check block w, creating the blocks up to w on first use.
// Block 0 also serves SplitAt and ESSAt.
func (r *Rhat) block(w int) *checkBlock {
	for len(r.blocks) <= w {
		blk := &checkBlock{vertexScratch: vertexScratch{
			seqMean:   make([]float64, 2*r.b),
			seqVar:    make([]float64, 2*r.b),
			chainMean: make([]float64, r.b),
		}}
		blk.run = func() {
			defer r.wg.Done()
			r.scan(blk)
		}
		r.blocks = append(r.blocks, blk)
	}
	return r.blocks[w]
}

// scan runs the per-vertex kernel over the block's vertices in order.
func (r *Rhat) scan(blk *checkBlock) {
	d := Diagnostics{
		Rhat: math.Inf(-1), WorstVertex: -1,
		SplitRhat: math.Inf(-1), SplitVertex: -1,
		ESS: math.Inf(1), ESSVertex: -1,
	}
	for v := blk.lo; v < blk.hi; v++ {
		split, ess := r.vertexStats(v, &blk.vertexScratch)
		d.fold(Diagnostics{
			Rhat: r.at(v), WorstVertex: v,
			SplitRhat: split, SplitVertex: v,
			ESS: ess, ESSVertex: v,
		})
	}
	blk.d = d
}

// Check runs one convergence check: the worst whole-chain R̂, the worst
// split R̂ and the smallest effective sample size, in one pass of the
// per-vertex kernel. The vertices are cut into psample.DefaultWorkers(n)
// contiguous blocks, scanned concurrently, each with its own scratch, and
// the block results are folded in vertex order. The diagnostics draw no
// random numbers, so the result is the sequential scan's, bit for bit and
// vertex for vertex, whatever GOMAXPROCS is; and the check uses every core
// even when the engines run on one. An empty instance reports R̂ 1 and
// the full pooled count B·Count at vertex 0. The one error is SplitReady
// not holding.
func (r *Rhat) Check() (Diagnostics, error) {
	if r.n == 0 {
		return Diagnostics{Rhat: 1, SplitRhat: 1, ESS: float64(r.b) * float64(r.count)}, nil
	}
	if err := r.ready("a convergence check"); err != nil {
		return Diagnostics{}, err
	}
	k := psample.DefaultWorkers(r.n)
	for w := 0; w < k; w++ {
		blk := r.block(w)
		blk.lo, blk.hi = psample.BlockOf(r.n, k, w)
	}
	r.wg.Add(k - 1)
	for _, blk := range r.blocks[1:k] {
		go blk.run()
	}
	r.scan(r.blocks[0])
	r.wg.Wait()
	d := r.blocks[0].d
	for _, blk := range r.blocks[1:k] {
		d.fold(blk.d)
	}
	return d, nil
}

// Worst returns the vertex with the largest whole-chain R̂ and its value.
// It reads only the running moments, not the snapshot buffer.
func (r *Rhat) Worst() (v int, rhat float64, err error) {
	if r.n == 0 {
		return 0, 1, nil
	}
	if err := r.observed(); err != nil {
		return 0, 0, err
	}
	v, rhat = -1, math.Inf(-1)
	for u := 0; u < r.n; u++ {
		if x := r.at(u); x > rhat {
			v, rhat = u, x
		}
	}
	return v, rhat, nil
}

// WorstSplit returns the vertex with the largest split R̂ and its value:
// Check's split field.
func (r *Rhat) WorstSplit() (v int, rhat float64, err error) {
	d, err := r.Check()
	if err != nil {
		return 0, 0, r.ready("split R̂")
	}
	return d.SplitVertex, d.SplitRhat, nil
}

// MinESS returns the vertex with the smallest effective sample size and
// its value — the bottleneck against a min-ESS target: Check's ESS field.
// An empty instance reports the full pooled count.
func (r *Rhat) MinESS() (v int, ess float64, err error) {
	d, err := r.Check()
	if err != nil {
		return 0, 0, r.ready("ESS")
	}
	return d.ESSVertex, d.ESS, nil
}
