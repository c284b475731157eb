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
//     (Worst);
//   - a bounded, evenly thinned buffer of lattice snapshots, behind the
//     split statistic (WorstSplit — each retained chain series is
//     split into halves, so a chain that wandered between two modes shows
//     up even when the whole-chain means agree) and the per-vertex
//     effective sample size (MinESS — Geyer initial-monotone
//     autocorrelation sums on the retained series).
//
// The buffer is time-major: retained snapshot i is one copy of the
// lattice's raw cell block, laid out like the lattice (cell v*B+c), one
// byte per cell on compact lattices and an int32 per cell on wide ones,
// in a slice of its own. Observe therefore costs one pass over the
// lattice. Each retained observation allocates its snapshot, up to a fixed
// number of snapshots; when the buffer fills, every other snapshot is
// dropped (snapshot 2i+1 moves to i, which moves a slice header, not the
// cells) and the retention stride doubles, so the retained series stays
// evenly spaced across the whole history and memory stays bounded no
// matter how long the run. The dropped snapshots' slices take the
// observations that follow, so nothing is allocated after the buffer
// first fills.
//
// Reading the buffer is one kernel per vertex (vertexStats): it gathers
// the vertex's series once into a chain-major float64 scratch, takes one
// sum pass and one deviation pass per chain, and yields the split
// statistic and the ESS together; splitAt and essAt are views of it. A
// convergence check splits in two. The whole-chain R̂ (Worst) reads only
// the running moments, a scan of n·B cells. The split-R̂/ESS pass runs the
// kernel over every vertex, and there are two ways to run it. Check runs
// it on the caller: its workers — goroutines on every other core, each
// with its own scratch, and the caller — claim chunks of its scan order
// until none are left, and their results fold so that the lowest vertex
// wins every tie, whoever scanned it. Queue defers it instead, to the
// accumulator's Backlog: one FIFO queue of passes per drive, shared by
// every accumulator made on it. Up to the backlog's core count of
// background workers take whole queued passes, oldest first, while the
// caller goes on advancing its engine; Drain takes on the caller whatever
// no worker has taken and waits for the workers to finish theirs and
// exit. Every worker, the caller and Check's goroutines each keep one
// gather scratch for every accumulator and pass of the backlog, so the
// stages and passes of a drive share their scratch instead of each
// growing its own.
//
// A check reports only the smallest ESS, so the pass searches for it by
// branch and bound. It scans the vertex with the worst whole-chain R̂
// first, the likeliest to mix worst, then the rest in index order. The
// Geyer loop dominates the kernel, and each of its lag pairs bounds what
// the pairs still to come can add, so a worker stops a vertex's loop as
// soon as the vertex's ESS is certain to exceed (by a margin far above
// rounding) the smallest ESS that worker has already found in the pass. A
// stopped vertex can then neither win nor tie, and the check still reports
// the full scan's fields, bit for bit and vertex for vertex (vertexStats
// says why).
//
// A queued pass reads a frozen view: its own copy of the buffer's slice
// header and of the retained length, stride and count (history), never
// the moments or the live fields. That view stays valid while Observe goes
// on: an observation writes only a snapshot past the frozen length, a
// fresh one or one that thinning dropped; only thinning moves retained
// snapshots, and Observe finishes the accumulator's passes still queued or
// running before it thins. The diagnostics draw no random numbers, so a
// pass's result is the same whether it ran inline or in the background, on
// one worker or on several: it does not depend on GOMAXPROCS, on the
// engines' worker count, or on when it ran.
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
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/psample"
)

// DefaultRetain is the observation-buffer capacity in snapshots: enough
// resolution for the split and autocorrelation statistics. A snapshot
// costs one byte per cell on compact lattices, so the buffer holds at most
// DefaultRetain·n·B bytes and reaches that only after DefaultRetain
// observations: a drive that stops after T ≤ DefaultRetain sweeps retains
// T·n·B bytes and allocates no more for its snapshots, one slice each.
const DefaultRetain = 256

// Rhat accumulates per-(vertex, chain) observation statistics of a
// multi-chain engine's state and reports the Gelman–Rubin statistic
// (classic and split forms) and the effective sample size per vertex. It
// works with any MultiChain — the three batched engines of
// internal/psample alike. Memory is the 16·n·B
// bytes of running moments plus the snapshot buffer, which holds one byte
// per cell per retained observation (four on wide lattices); the kernel
// scratch belongs to the accumulator's backlog. An Rhat is not safe for
// concurrent use; the passes of its backlog are its only other readers.
type Rhat struct {
	m MultiChain
	// history is everything the per-vertex kernel reads.
	history
	// mean and m2 are chain-major like the lattice: entry v*B+c carries
	// chain c's running mean / centered second moment at vertex v.
	mean []float64
	m2   []float64
	skip int
	// q queues the accumulator's deferred passes and holds the scratch of
	// every pass and of splitAt and essAt.
	q *Backlog
	// worstV is the vertex of the last whole-chain scan (worst) and
	// worstAt the observation count it ran at: a pass scans that vertex
	// first.
	worstV, worstAt int
}

// history is the part of the accumulator the per-vertex kernel reads: the
// shape, the thinned snapshot buffer and the observation count. Snapshot i
// is the cells-long slice snaps8[i] (compact lattices) or snapsW[i] (wide
// lattices; the other stays nil) for i < rlen; the slices past rlen are
// snapshots that thinning dropped, kept for the next observations.
// Snapshots are evenly spaced every `stride` observations across the
// history, most recent last. A copy is a frozen view: Observe changes the
// accumulator's copy, never the retained cells a copy covers, except when
// it thins (see Observe).
type history struct {
	// n and b are the vertex and chain counts, read once; cells = n·b is
	// one snapshot's length.
	n, b, cells int
	compact     bool
	retain      int
	snaps8      [][]uint8
	snapsW      [][]int32
	rlen        int
	stride      int
	count       int
}

// NewRhat returns an empty accumulator for the multi-chain engine with the
// default observation-buffer capacity, on a backlog of its own with no
// background workers: its checks run with Check. The diagnostics need at
// least two chains.
func NewRhat(m MultiChain) (*Rhat, error) { return newRhat(m, DefaultRetain, NewBacklog(0)) }

// NewRhat returns an empty accumulator for the multi-chain engine with the
// default observation-buffer capacity, whose Queue defers passes to q and
// whose passes share q's scratch. The diagnostics need at least two
// chains.
func (q *Backlog) NewRhat(m MultiChain) (*Rhat, error) { return newRhat(m, DefaultRetain, q) }

// newRhat returns an empty accumulator on q retaining at most `retain`
// thinned snapshots. retain must be an even number ≥ 8 (thinning halves
// the buffer in place).
func newRhat(m MultiChain, retain int, q *Backlog) (*Rhat, error) {
	B := m.Chains()
	if B < 2 {
		return nil, fmt.Errorf("sampler: Gelman–Rubin needs ≥ 2 chains, engine has %d", B)
	}
	if retain < 8 || retain%2 != 0 {
		return nil, fmt.Errorf("sampler: observation buffer capacity must be an even number ≥ 8, got %d", retain)
	}
	lat := m.Lattice()
	n := lat.N()
	r := &Rhat{
		m: m,
		history: history{
			n:       n,
			b:       B,
			cells:   n * B,
			compact: lat.Compact(),
			retain:  retain,
			stride:  1,
		},
		mean: make([]float64, n*B),
		m2:   make([]float64, n*B),
		q:    q,
	}
	// The snapshot headers never move, so a frozen view's header stays
	// valid while Observe appends.
	if r.compact {
		r.snaps8 = make([][]uint8, 0, retain)
	} else {
		r.snapsW = make([][]int32, 0, retain)
	}
	return r, nil
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
// on retention strides, appends it to the snapshot buffer, in a snapshot
// that thinning dropped or, before the first thinning, a new one. Call it
// between Run chunks (e.g. once per sweep-equivalent). When the buffer
// fills, it finishes the accumulator's queued passes before thinning it.
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
			r.snaps8 = next(r.snaps8, r.rlen, r.cells)
			copy(r.snaps8[r.rlen], raw)
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
			r.snapsW = next(r.snapsW, r.rlen, r.cells)
			snap := r.snapsW[r.rlen]
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
		// Thinning moves retained snapshots in place, under the views of
		// the passes still queued or running: finish them.
		r.q.settle(r)
		half := r.retain / 2
		if r.compact {
			thin(r.snaps8, half)
		} else {
			thin(r.snapsW, half)
		}
		r.rlen = half
		r.stride *= 2
	}
	r.skip = r.stride - 1
}

// next makes sure snaps holds a snapshot at slot rlen, the next to
// retain: one that thinning dropped, or a new one of `cells` cells, which
// only the first `retain` observations kept need. snaps was made with
// capacity retain, so appending never moves the headers.
func next[T uint8 | int32](snaps [][]T, rlen, cells int) [][]T {
	if rlen < len(snaps) {
		return snaps
	}
	return append(snaps, make([]T, cells))
}

// thin moves snapshot 2i+1 to slot i for every i < half by swapping slice
// headers, so the snapshots it drops land in slots half to 2·half−1 for
// reuse: slot 2i+1 still holds its own snapshot when step i reads it,
// since the earlier steps wrote only slots below i and odd slots below
// 2i+1.
func thin[T uint8 | int32](snaps [][]T, half int) {
	for i := 0; i < half; i++ {
		snaps[i], snaps[2*i+1] = snaps[2*i+1], snaps[i]
	}
}

// vertexScratch is the reusable scratch of the per-vertex kernel: one
// vertex's gathered history, chain-major (chain c's retained series at
// series[c*rlen:(c+1)*rlen]), the 2B half-sequence means and variances of
// the split statistic, and the B chain means of the ESS. gather sizes it
// for the history it reads, so the zero value is ready to use. pairs
// counts the Geyer lag pairs the kernel has computed with this scratch.
type vertexScratch struct {
	series    []float64
	seqMean   []float64
	seqVar    []float64
	chainMean []float64
	pairs     int
}

// gather copies vertex v's retained series into the scratch, chain c's
// series at y[c*L:(c+1)*L], oldest first, and returns it.
func (h *history) gather(v int, sc *vertexScratch) []float64 {
	B, L := h.b, h.rlen
	if cap(sc.series) < B*L {
		// Sized ahead, to twice the retained length up to the buffer
		// capacity, so growth is rare.
		sc.series = make([]float64, B*min(2*L, h.retain))
	}
	if len(sc.chainMean) != B {
		sc.seqMean = make([]float64, 2*B)
		sc.seqVar = make([]float64, 2*B)
		sc.chainMean = make([]float64, B)
	}
	y := sc.series[:B*L]
	off := v * B
	if h.compact {
		for t, snap := range h.snaps8[:L] {
			for c, x := range snap[off : off+B] {
				y[c*L+t] = cell8[x]
			}
		}
		return y
	}
	for t, snap := range h.snapsW[:L] {
		for c, x := range snap[off : off+B] {
			y[c*L+t] = float64(x)
		}
	}
	return y
}

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

// rhatAt returns the classic whole-chain Gelman–Rubin statistic of vertex v
// over the observations so far. A vertex with zero variance everywhere
// (pinned, or a frozen degree of freedom) reports exactly 1; zero
// within-chain variance with disagreeing chains reports +Inf. At least two
// observations are required.
func (r *Rhat) rhatAt(v int) (float64, error) {
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

// at is rhatAt without the observation-count check.
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

// splitAt returns the split Gelman–Rubin statistic of vertex v: every
// retained chain series is split into first and second halves, and the
// classic statistic is computed over the resulting 2B sequences — so a
// chain drifting within itself (e.g. wandering between modes) inflates
// the statistic even when whole-chain means agree. Conventions match rhatAt:
// all-constant sequences report exactly 1, zero within-sequence variance
// with disagreeing sequences reports +Inf. SplitReady must hold.
func (r *Rhat) splitAt(v int) (float64, error) {
	if err := r.ready("split R̂"); err != nil {
		return 0, err
	}
	split, _ := r.vertexStats(v, &r.q.own, math.Inf(1))
	return split, nil
}

// essAt returns the effective sample size of vertex v pooled across
// chains: B·T/τ, where τ is the integrated autocorrelation time estimated
// on the retained series by Geyer's initial-monotone-sequence rule over
// the multi-chain autocorrelations (the Stan estimator: within-chain
// autocovariances against the pooled var⁺, so chains frozen at different
// values drive the ESS to 0 rather than hiding in per-chain terms). When
// the buffer has thinned, the estimate is scaled by the retention stride —
// the retained series stands in for the evenly spaced history it samples.
// A vertex with no variance anywhere (pinned, or frozen identically in
// every chain) is perfectly estimated and reports the full pooled count
// B times the observation count. SplitReady must hold.
func (r *Rhat) essAt(v int) (float64, error) {
	if err := r.ready("ESS"); err != nil {
		return 0, err
	}
	_, ess := r.vertexStats(v, &r.q.own, math.Inf(1))
	return ess, nil
}

// vertexStats is the per-vertex kernel behind splitAt, essAt and Check: it
// gathers vertex v's retained series once and returns its split R̂ and its
// effective sample size. SplitReady must hold.
//
// The ESS is exact unless it provably exceeds bound: the Geyer loop then
// stops early and returns a lower bound lb of the ESS with lb > bound.
// splitAt and essAt pass +Inf and so always get the exact value. After lag
// pair k is added, every pair still to come is, once clamped, between 0
// and the current pair p (the monotone rule), and at most (L−2−k)/2 of
// them remain, so the final sum is at most sum + p·(L−2−k)/2 and lb is
// B·stride·L over 1 + 2·(that bound). A pass's worker bounds each vertex
// by the smallest ESS it has found times 1 + essMargin. The full loop's
// sum adds at most retain/2 non-negative terms and lb's denominator rounds
// differently, which moves either by under 1e-13 relative; so an ESS that
// returns lb is strictly above one the pass has attained, and it can
// neither win nor tie the fold. The split statistic is always exact, and a
// vertex whose ESS is 0 (chains frozen apart) or the full pooled count
// (frozen everywhere) returns before the loop.
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
func (h *history) vertexStats(v int, sc *vertexScratch, bound float64) (split, ess float64) {
	B, L := h.b, h.rlen
	y := h.gather(v, sc)
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
	total := float64(B) * float64(h.count)
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
	// non-negative, enforcing monotone non-increase; stop once the ESS
	// provably exceeds bound.
	scale := float64(B) * float64(h.stride*L)
	sum, prev := 0.0, math.Inf(1)
	for k := 1; k+1 < L; k += 2 {
		g0, g1 := gammaPair(k)
		sc.pairs++
		p := (1 - (W-g0)/varPlus) + (1 - (W-g1)/varPlus)
		if p < 0 {
			break
		}
		if p > prev {
			p = prev
		}
		prev = p
		sum += p
		if lb := scale / (1 + 2*(sum+p*float64((L-2-k)/2))); lb > bound {
			return split, lb
		}
	}
	tau := 1 + 2*sum
	ess = scale / tau
	return split, math.Min(ess, total)
}

// essMargin is the relative margin by which a pass's bound clears the
// smallest ESS found, far above the rounding vertexStats allows for.
const essMargin = 1e-9

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

// fold takes each pass statistic of o that is worse than d's, or as bad
// at a lower vertex. The result is the sequential scan's — the lowest
// vertex attaining the worst value — whatever order the vertices, or the
// partial results of several workers, are folded in. The empty result's
// vertex is −1, so a vertex as bad as its ±Inf never replaces it, as in
// the sequential scan.
func (d *Diagnostics) fold(o Diagnostics) {
	if o.SplitRhat > d.SplitRhat || o.SplitRhat == d.SplitRhat && o.SplitVertex < d.SplitVertex {
		d.SplitRhat, d.SplitVertex = o.SplitRhat, o.SplitVertex
	}
	if o.ESS < d.ESS || o.ESS == d.ESS && o.ESSVertex < d.ESSVertex {
		d.ESS, d.ESSVertex = o.ESS, o.ESSVertex
	}
}

// noPass is the empty pass result every fold starts from.
var noPass = Diagnostics{
	SplitRhat: math.Inf(-1), SplitVertex: -1,
	ESS: math.Inf(1), ESSVertex: -1,
}

// frozen is the input of one split-R̂/ESS pass: a frozen view of the
// history and the vertex its scan puts first, the worst whole-chain-R̂
// vertex, the likeliest to mix worst; the rest follow in index order.
type frozen struct {
	view  history
	first int
}

// vertexAt returns the vertex at scan position i: first at position 0,
// then every other vertex in index order.
func (f *frozen) vertexAt(i int) int {
	switch {
	case i == 0:
		return f.first
	case i <= f.first:
		return i - 1
	}
	return i
}

// scanRange folds the statistics of scan positions [lo, hi) into d, in
// scan order. The ESS kernel is bounded by d's smallest ESS so far: a
// vertex it stops early reports more than that, so the fold never takes
// it.
func (f *frozen) scanRange(lo, hi int, sc *vertexScratch, d *Diagnostics) {
	for i := lo; i < hi; i++ {
		v := f.vertexAt(i)
		split, ess := f.view.vertexStats(v, sc, d.ESS*(1+essMargin))
		d.fold(Diagnostics{SplitRhat: split, SplitVertex: v, ESS: ess, ESSVertex: v})
	}
}

// inlinePass is the split-R̂/ESS pass Check runs on the caller. Its
// workers — goroutines, each with its own scratch, and the caller — claim
// chunks of consecutive scan positions until none are left, so a pass
// ends as soon as the cores that did start have scanned every vertex; each
// worker bounds the ESS kernel by the smallest ESS it has found so far.
// A backlog has one, which every Check of its accumulators reuses.
type inlinePass struct {
	frozen
	// next is the first scan position no worker has claimed, and a claim
	// takes chunk consecutive positions.
	next  atomic.Int64
	chunk int64
	// mine is the caller's share of the result.
	mine Diagnostics
	// workers are the goroutines' slots, k of them open to this pass; the
	// scratch of each is sized on first use and kept. work is the
	// goroutines' entry point, bound once so a start allocates nothing.
	workers []*passWorker
	k       int
	work    func()
	// mu guards open (the pass takes workers), used (slots taken) and
	// running (workers still scanning); idle is signalled when the last
	// running worker leaves.
	mu            sync.Mutex
	idle          sync.Cond
	open          bool
	used, running int
}

// passWorker is one goroutine's slot in an inline pass: its kernel scratch
// and its share of the result.
type passWorker struct {
	vertexScratch
	d Diagnostics
}

// start freezes the view h and starts k worker goroutines on it, scanning
// vertex first first; the caller is one more worker once it finishes the
// pass. Chunks are small enough that the workers can share the vertices
// evenly.
func (p *inlinePass) start(h history, k, first int) {
	p.frozen = frozen{view: h, first: first}
	p.k = k
	for len(p.workers) < k {
		p.workers = append(p.workers, &passWorker{})
	}
	p.next.Store(0)
	p.chunk = int64(max(h.n/(8*(k+1)), 1))
	p.mine = noPass
	p.mu.Lock()
	p.open, p.used = true, 0
	p.mu.Unlock()
	for range k {
		go p.work()
	}
}

// worker is a goroutine's turn at the pass: it takes a free slot, if the
// pass is still open and has one, and scans chunks until none are left. A
// goroutine that starts after its pass has finished finds it closed, or
// finds a later pass and works on that one.
func (p *inlinePass) worker() {
	p.mu.Lock()
	if !p.open || p.used == p.k {
		p.mu.Unlock()
		return
	}
	w := p.workers[p.used]
	p.used++
	p.running++
	p.mu.Unlock()
	w.d = noPass
	p.scan(&w.vertexScratch, &w.d)
	p.mu.Lock()
	p.running--
	if p.running == 0 {
		p.idle.Signal()
	}
	p.mu.Unlock()
}

// scan claims chunks of scan positions until none are left and folds each
// vertex's statistics into d, in scan order.
func (p *inlinePass) scan(sc *vertexScratch, d *Diagnostics) {
	n, c := int64(p.view.n), p.chunk
	for {
		lo := p.next.Add(c) - c
		if lo >= n {
			return
		}
		p.scanRange(int(lo), int(min(lo+c, n)), sc, d)
	}
}

// finish scans what no worker has claimed on the caller, with the
// caller's scratch sc, then closes the pass to goroutines that have not
// started and waits for the workers still scanning, each at most one chunk
// from done. So it never waits for a core to start, and it costs at most
// what the whole pass costs on the caller.
func (p *inlinePass) finish(sc *vertexScratch) {
	p.scan(sc, &p.mine)
	p.mu.Lock()
	p.open = false
	for p.running > 0 {
		p.idle.Wait()
	}
	p.mu.Unlock()
}

// result folds the caller's and the workers' shares: the split R̂ and ESS
// fields of the check, the whole-chain fields left zero.
func (p *inlinePass) result() Diagnostics {
	d := p.mine
	for _, w := range p.workers[:p.used] {
		d.fold(w.d)
	}
	return d
}

// Check runs one convergence check on the caller: the worst whole-chain
// R̂ (Worst) and then the split-R̂/ESS pass, the worst split R̂ and the
// smallest effective sample size, which scans the worst whole-chain-R̂
// vertex first. The caller and psample.DefaultWorkers(n) − 1
// goroutines share the pass's vertices, each with its own scratch, and
// fold their results. The diagnostics draw no random numbers, so the
// result is the sequential scan's, bit for bit and vertex for vertex,
// whatever GOMAXPROCS is; and the check uses every core even when the
// engines run on one. An empty instance reports R̂ 1 and the full pooled
// count, B times the observation count, at vertex 0. The one error is
// SplitReady not holding.
func (r *Rhat) Check() (Diagnostics, error) {
	if r.n == 0 {
		return r.emptyCheck(), nil
	}
	if err := r.ready("a convergence check"); err != nil {
		return Diagnostics{}, err
	}
	wv, rhat := r.worst()
	p := &r.q.inline
	p.start(r.history, psample.DefaultWorkers(r.n)-1, wv)
	p.finish(&r.q.own)
	d := p.result()
	d.WorstVertex, d.Rhat = wv, rhat
	return d, nil
}

// emptyCheck is the check of an instance with no vertices: R̂ 1 and the
// full pooled count, at vertex 0.
func (r *Rhat) emptyCheck() Diagnostics {
	return Diagnostics{Rhat: 1, SplitRhat: 1, ESS: float64(r.b) * float64(r.count)}
}

// Backlog is one drive's queue of deferred split-R̂/ESS passes, first in,
// first out, and the kernel scratch of every accumulator made on it
// (Backlog.NewRhat). Rhat.Queue appends an accumulator's pass. Up to the
// backlog's core count of background workers — goroutines started as
// passes arrive, which exit once none is left — each take a whole pass,
// oldest first, and scan it with their own scratch, bounding the ESS
// search across all of the pass's vertices. Drain finishes the backlog on
// the caller: it takes the passes no worker has taken, oldest first,
// waits for the workers to finish theirs and exit, and returns every
// result in queue order. A caller that drains before it returns leaves no
// pass or goroutine behind.
//
// A backlog and its accumulators belong to one goroutine, the caller; the
// workers are their only other users. The passes of an accumulator the
// caller has stopped observing (an escalated stage's) stay valid and drain
// with the rest.
type Backlog struct {
	cores int
	// mu guards the passes' states, head, active and free; done is
	// broadcast whenever a pass is done or a worker exits.
	mu   sync.Mutex
	done sync.Cond
	// passes[:n] are the passes queued since the last Drain, in queue
	// order, and none before head is still queued; the records past n are
	// kept for reuse.
	passes  []*queuedPass
	n, head int
	// active counts the running workers and free holds the scratch of the
	// workers not running; work is their entry point, bound once so a
	// start allocates nothing.
	active int
	free   []*vertexScratch
	work   func()
	// own is the caller's scratch, inline the pass Check runs and results
	// Drain's return value.
	own     vertexScratch
	inline  inlinePass
	results []Diagnostics
}

// queuedPass is one pass of a backlog: the accumulator whose buffer it
// reads, its frozen input, how far it has got and, once done, its result.
type queuedPass struct {
	frozen
	r     *Rhat
	state passState
	d     Diagnostics
}

// passState is where a queued pass stands: queued, taken by a worker or
// the caller, or done.
type passState uint8

const (
	passQueued passState = iota
	passTaken
	passDone
)

// NewBacklog returns an empty backlog whose passes run on up to cores
// background workers; with none (cores ≤ 0) Drain runs every pass on the
// caller.
func NewBacklog(cores int) *Backlog {
	cores = max(cores, 0)
	q := &Backlog{cores: cores, free: make([]*vertexScratch, 0, cores)}
	q.done.L = &q.mu
	q.work = q.worker
	q.inline.idle.L = &q.inline.mu
	q.inline.work = q.inline.worker
	return q
}

// Queue defers the split-R̂/ESS pass of a convergence check at the current
// observation to the accumulator's backlog, whose Drain returns its
// result in queue order: Check's split R̂ and ESS fields at this moment,
// bit for bit (the whole-chain fields are zero: read them from Worst).
// The pass scans first the vertex of a Worst call at the current
// observation count, running that scan now if there was none: the pass
// itself never reads the running moments, which Observe goes on changing.
// Meanwhile the caller may go on advancing the engine and calling Observe,
// Worst, Check and Queue. An empty instance's pass is done at once, with
// Check's result. The one error is SplitReady not holding.
func (r *Rhat) Queue() error {
	if r.n > 0 {
		if err := r.ready("a convergence check"); err != nil {
			return err
		}
		if r.worstAt != r.count {
			r.worst()
		}
	}
	q := r.q
	q.mu.Lock()
	if q.n == len(q.passes) {
		q.passes = append(q.passes, new(queuedPass))
	}
	p := q.passes[q.n]
	q.n++
	p.r = r
	start := false
	if r.n == 0 {
		p.state, p.d = passDone, r.emptyCheck()
	} else {
		p.frozen = frozen{view: r.history, first: r.worstV}
		p.state = passQueued
		if start = q.active < q.cores; start {
			q.active++
		}
	}
	q.mu.Unlock()
	if start {
		go q.work()
	}
	return nil
}

// Drain finishes every pass queued since the last Drain and returns their
// results in queue order, in a slice the backlog reuses at the next
// Drain. The caller takes the passes no worker has taken, oldest first,
// while the workers finish theirs, and Drain returns once every worker
// has exited: no pass or worker outlives it.
func (q *Backlog) Drain() []Diagnostics {
	q.mu.Lock()
	defer q.mu.Unlock()
	for p := q.next(); p != nil; p = q.next() {
		q.run(p, &q.own)
	}
	for q.active > 0 {
		q.done.Wait()
	}
	if cap(q.results) < q.n {
		q.results = make([]Diagnostics, 0, q.n)
	}
	q.results = q.results[:0]
	for _, p := range q.passes[:q.n] {
		q.results = append(q.results, p.d)
		*p = queuedPass{}
	}
	q.n, q.head = 0, 0
	return q.results
}

// settle finishes r's passes before r thins its buffer under their views.
// It first runs on the caller every pass of r still queued, oldest first,
// while the workers go on with theirs, and only then waits for those a
// worker has taken. Waiting first would let a worker take r's next pass
// each time it finished one, before the caller woke to take it.
func (q *Backlog) settle(r *Rhat) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, p := range q.passes[:q.n] {
		if p.r == r && p.state == passQueued {
			p.state = passTaken
			q.run(p, &q.own)
		}
	}
	for _, p := range q.passes[:q.n] {
		for p.r == r && p.state != passDone {
			q.done.Wait()
		}
	}
}

// worker is a background worker: it takes queued passes, oldest first,
// and runs each whole with one scratch until none is left, then exits.
func (q *Backlog) worker() {
	q.mu.Lock()
	defer q.mu.Unlock()
	var sc *vertexScratch
	if k := len(q.free); k > 0 {
		sc, q.free = q.free[k-1], q.free[:k-1]
	} else {
		sc = new(vertexScratch)
	}
	for p := q.next(); p != nil; p = q.next() {
		q.run(p, sc)
	}
	q.free = append(q.free, sc)
	q.active--
	q.done.Broadcast()
}

// next marks the oldest queued pass taken and returns it, or nil when
// none is queued. mu must be held.
func (q *Backlog) next() *queuedPass {
	for ; q.head < q.n; q.head++ {
		if p := q.passes[q.head]; p.state == passQueued {
			p.state = passTaken
			q.head++
			return p
		}
	}
	return nil
}

// run scans the taken pass p whole with the scratch sc, with mu released,
// and marks it done. mu must be held.
func (q *Backlog) run(p *queuedPass, sc *vertexScratch) {
	q.mu.Unlock()
	p.d = noPass
	p.scanRange(0, p.view.n, sc, &p.d)
	q.mu.Lock()
	p.state = passDone
	q.done.Broadcast()
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
	v, rhat = r.worst()
	return v, rhat, nil
}

// worst is Worst's scan, in vertex order with strict comparisons. It
// records the vertex, and the observation count it scanned at, for the
// pass's scan order.
func (r *Rhat) worst() (v int, rhat float64) {
	v, rhat = -1, math.Inf(-1)
	for u := 0; u < r.n; u++ {
		if x := r.at(u); x > rhat {
			v, rhat = u, x
		}
	}
	r.worstV, r.worstAt = v, r.count
	return v, rhat
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
