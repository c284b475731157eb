package gibbs

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/dist"
)

// DefaultTableCap is the default maximum number of entries (q^|Scope|) a
// factor may need before Compile falls back to its Eval closure instead of
// materializing a dense weight table. All pairwise models ship tables of at
// most q² entries, far below the cap.
const DefaultTableCap = 1 << 12

// Compiled is the compiled evaluation engine for a Spec: every factor whose
// assignment space fits under the table cap is precomputed into a dense
// weight table indexed by the big-endian mixed-radix encoding of its scope
// assignment, and the per-vertex factor index is flattened into CSR form
// with duplicates removed. The kernels below evaluate factors without
// allocating and without calling through function pointers on the table
// path.
//
// All kernels are pure with respect to the engine and safe for concurrent
// use, except that WeightRatioOnBall writes into the caller-provided
// Scratch (use one Scratch per goroutine) and CondWeights writes into the
// caller-provided buffer.
type Compiled struct {
	spec *Spec
	q    int
	n    int

	factors []cfactor

	// Deduplicated CSR: factor indices containing v are
	// idx[off[v]:off[v+1]], strictly increasing (a vertex repeated inside
	// one scope yields a single entry, unlike Spec.FactorsAt).
	off []int32
	idx []int32

	// plan is the per-vertex sweep plan of the fused batch kernels (see
	// plan.go), built lazily on first use — Compile stays cheap for callers
	// that never batch.
	planOnce sync.Once
	plan     *SweepPlan

	// cond is the conditional-CDF cache layered on the plan (see cond.go),
	// likewise lazy and immutable.
	condOnce sync.Once
	cond     *CondCache
}

// cfactor is one compiled factor: either a dense table (fast path) or the
// original closure (fallback above the cap).
type cfactor struct {
	scope   []int32
	strides []int32 // strides[j] = q^(s−1−j); index = Σ assign[j]·strides[j]
	table   []float64
	eval    func([]int) float64 // non-nil iff table is nil
}

// Compile builds the compiled engine for the spec with the default table
// cap. Factors carrying an explicit Table are adopted verbatim (shared, not
// copied); closure factors with q^|Scope| ≤ DefaultTableCap are enumerated
// into fresh tables; larger closure factors stay on the closure path.
func Compile(s *Spec) *Compiled {
	return CompileCap(s, DefaultTableCap)
}

// CompileCap is Compile with an explicit table-size cap (entries per
// factor). A cap below q leaves every closure factor uncompiled — useful
// for exercising the fallback path in tests.
func CompileCap(s *Spec, tableCap int) *Compiled {
	c := &Compiled{spec: s, q: s.Q, n: s.N()}
	c.factors = make([]cfactor, len(s.Factors))
	for i, f := range s.Factors {
		cf := &c.factors[i]
		cf.scope = make([]int32, len(f.Scope))
		for j, v := range f.Scope {
			cf.scope[j] = int32(v)
		}
		cf.strides = strides(s.Q, len(f.Scope))
		size, sizeErr := tableSize(s.Q, len(f.Scope))
		switch {
		case f.Table != nil:
			cf.table = f.Table
		case sizeErr == nil && size <= tableCap:
			cf.table = enumerateTable(f.Eval, s.Q, size, len(f.Scope))
		default:
			cf.eval = f.Eval
		}
	}
	// Deduplicated CSR built from the spec's (per-vertex increasing) index.
	c.off = make([]int32, c.n+1)
	c.idx = make([]int32, 0, len(s.factorIdx))
	for v := 0; v < c.n; v++ {
		prev := int32(-1)
		for _, fi := range s.FactorsAt(v) {
			if fi != prev {
				c.idx = append(c.idx, fi)
				prev = fi
			}
		}
		c.off[v+1] = int32(len(c.idx))
	}
	return c
}

// strides returns the big-endian mixed-radix strides for a scope of size s.
func strides(q, s int) []int32 {
	st := make([]int32, s)
	acc := int32(1)
	for j := s - 1; j >= 0; j-- {
		st[j] = acc
		acc *= int32(q)
	}
	return st
}

// enumerateTable materializes a closure factor into a dense table of the
// given (pre-validated) size q^s.
func enumerateTable(eval func([]int) float64, q, size, s int) []float64 {
	table := make([]float64, size)
	assign := make([]int, s)
	for idx := 0; idx < size; idx++ {
		rem := idx
		for j := s - 1; j >= 0; j-- {
			assign[j] = rem % q
			rem /= q
		}
		table[idx] = eval(assign)
	}
	return table
}

// Spec returns the specification the engine was compiled from.
func (c *Compiled) Spec() *Spec { return c.spec }

// N returns the number of variables.
func (c *Compiled) N() int { return c.n }

// Q returns the alphabet size.
func (c *Compiled) Q() int { return c.q }

// Tabled reports whether factor i is on the dense-table fast path.
func (c *Compiled) Tabled(i int) bool { return c.factors[i].table != nil }

// FactorsAt returns the indices of factors whose scope contains v, strictly
// increasing and deduplicated. The slice aliases engine state and must not
// be modified.
func (c *Compiled) FactorsAt(v int) []int32 {
	if v < 0 || v >= c.n {
		return nil
	}
	return c.idx[c.off[v]:c.off[v+1]]
}

// EvalFull evaluates factor i on the configuration, requiring every scope
// vertex assigned; ok is false otherwise. Symbols must lie in 0..q−1.
func (c *Compiled) EvalFull(i int, cfg dist.Config) (val float64, ok bool) {
	f := &c.factors[i]
	if f.table != nil {
		idx := int32(0)
		for j, v := range f.scope {
			if int(v) >= len(cfg) {
				return 0, false
			}
			x := cfg[v]
			if x < 0 { // Unset
				return 0, false
			}
			idx += int32(x) * f.strides[j]
		}
		return f.table[idx], true
	}
	assign := make([]int, len(f.scope))
	for j, v := range f.scope {
		if int(v) >= len(cfg) || cfg[v] == dist.Unset {
			return 0, false
		}
		assign[j] = cfg[v]
	}
	return f.eval(assign), true
}

// Weight returns w(σ) = Π f(σ_S) over all factors. The configuration must
// be total. Factors are visited in index order, matching Spec.Weight
// bit-for-bit on table-backed specs.
func (c *Compiled) Weight(cfg dist.Config) (float64, error) {
	if !cfg.IsTotal() {
		return 0, errors.New("gibbs: Weight requires a total configuration")
	}
	w := 1.0
	for i := range c.factors {
		val, ok := c.EvalFull(i, cfg)
		if !ok {
			return 0, errors.New("gibbs: factor scope unassigned")
		}
		w *= val
		if w == 0 {
			return 0, nil
		}
	}
	return w, nil
}

// PartialWeight returns the product of the factors whose scopes are fully
// assigned under the partial configuration σ.
func (c *Compiled) PartialWeight(cfg dist.Config) float64 {
	w := 1.0
	for i := range c.factors {
		val, ok := c.EvalFull(i, cfg)
		if !ok {
			continue
		}
		w *= val
		if w == 0 {
			return 0
		}
	}
	return w
}

// LocallyFeasible reports whether no fully assigned factor evaluates to
// zero under σ.
func (c *Compiled) LocallyFeasible(cfg dist.Config) bool {
	return c.PartialWeight(cfg) > 0
}

// LocallyFeasibleAt reports whether the factors involving vertex v that are
// fully assigned under c are all satisfied.
func (c *Compiled) LocallyFeasibleAt(cfg dist.Config, v int) bool {
	for _, i := range c.FactorsAt(v) {
		val, ok := c.EvalFull(int(i), cfg)
		if ok && val == 0 {
			return false
		}
	}
	return true
}

// PartialWeightAt returns the product of the factors containing v whose
// scopes are fully assigned under cfg — the multiplicative change in
// PartialWeight caused by assigning v after all currently assigned
// vertices. Summed over an assignment order, every factor is accounted
// exactly once (by the last of its scope vertices to be assigned), which is
// what turns exhaustive enumeration into an incremental product.
func (c *Compiled) PartialWeightAt(cfg dist.Config, v int) float64 {
	w := 1.0
	for _, i := range c.FactorsAt(v) {
		val, ok := c.EvalFull(int(i), cfg)
		if !ok {
			continue
		}
		w *= val
		if w == 0 {
			return 0
		}
	}
	return w
}

// CondWeights fills buf[0:q] with the unnormalized heat-bath conditional
// weights of vertex v: buf[x] = Π over factors containing v of the factor
// evaluated with v set to x and every other scope vertex read from cfg
// (which must assign them). It performs no allocation on the table path and
// never writes to cfg; the filled prefix buf[:q] is returned.
func (c *Compiled) CondWeights(cfg dist.Config, v int, buf []float64) ([]float64, error) {
	if v < 0 || v >= c.n {
		return nil, fmt.Errorf("gibbs: conditional vertex %d out of range", v)
	}
	if len(buf) < c.q {
		return nil, fmt.Errorf("gibbs: conditional buffer has %d entries, need q = %d", len(buf), c.q)
	}
	w := buf[:c.q]
	for x := range w {
		w[x] = 1
	}
	for _, fi := range c.FactorsAt(v) {
		f := &c.factors[fi]
		if f.table != nil {
			base := int32(0)
			sv := int32(0)
			for j, u := range f.scope {
				if int(u) == v {
					// Repeated occurrences of v all take the same symbol,
					// so their strides simply accumulate.
					sv += f.strides[j]
					continue
				}
				if int(u) >= len(cfg) || cfg[u] < 0 {
					return nil, fmt.Errorf("gibbs: conditional at %d: scope vertex %d unassigned", v, u)
				}
				base += int32(cfg[u]) * f.strides[j]
			}
			for x := int32(0); x < int32(c.q); x++ {
				w[x] *= f.table[base+x*sv]
			}
			continue
		}
		assign := make([]int, len(f.scope))
		for x := 0; x < c.q; x++ {
			for j, u := range f.scope {
				if int(u) == v {
					assign[j] = x
					continue
				}
				if int(u) >= len(cfg) || cfg[u] == dist.Unset {
					return nil, fmt.Errorf("gibbs: conditional at %d: scope vertex %d unassigned", v, u)
				}
				assign[j] = cfg[u]
			}
			w[x] *= f.eval(assign)
		}
	}
	return w, nil
}

// Scratch holds the reusable buffers of the scratch-taking kernels. Use one
// Scratch per goroutine; a zero-length one is grown on demand by
// NewScratch.
type Scratch struct {
	mark    []int // per-factor visit stamp
	epoch   int
	touched []int32
}

// NewScratch returns scratch space sized for the engine.
func (c *Compiled) NewScratch() *Scratch {
	return &Scratch{mark: make([]int, len(c.factors))}
}

// WeightRatioOnBall returns w(σ')/w(σ) where σ' and σ are total
// configurations differing only inside the vertex set D. Only factors whose
// scope intersects D contribute (equation (12) of the paper), visited in
// increasing factor order so the rounded result is deterministic, matching
// Spec.WeightRatioOnBall. sc may be nil (a throwaway scratch is allocated);
// pass a reused Scratch for the zero-allocation path.
func (c *Compiled) WeightRatioOnBall(sigmaNew, sigmaOld dist.Config, d []int, sc *Scratch) (float64, error) {
	if sc == nil {
		sc = c.NewScratch()
	} else if len(sc.mark) < len(c.factors) {
		// Grow the caller's scratch in place so subsequent calls reuse it.
		sc.mark = make([]int, len(c.factors))
		sc.epoch = 0
	}
	sc.epoch++
	sc.touched = sc.touched[:0]
	for _, v := range d {
		for _, fi := range c.FactorsAt(v) {
			if sc.mark[fi] != sc.epoch {
				sc.mark[fi] = sc.epoch
				sc.touched = append(sc.touched, fi)
			}
		}
	}
	slices.Sort(sc.touched)
	ratio := 1.0
	for _, fi := range sc.touched {
		num, ok1 := c.EvalFull(int(fi), sigmaNew)
		den, ok2 := c.EvalFull(int(fi), sigmaOld)
		if !ok1 || !ok2 {
			return 0, errors.New("gibbs: weight ratio on partial configuration")
		}
		if den == 0 {
			return 0, fmt.Errorf("%w: zero factor in ratio denominator", ErrInfeasible)
		}
		ratio *= num / den
	}
	return ratio, nil
}

// GreedyCompletion extends the partial configuration to a total, locally
// feasible configuration exactly as Spec.GreedyCompletion, using the
// compiled feasibility kernel.
func (c *Compiled) GreedyCompletion(cfg dist.Config) (dist.Config, error) {
	out := cfg.Clone()
	for v := 0; v < c.n; v++ {
		if out[v] != dist.Unset {
			continue
		}
		done := false
		for x := 0; x < c.q; x++ {
			out[v] = x
			if c.LocallyFeasibleAt(out, v) {
				done = true
				break
			}
		}
		if !done {
			out[v] = dist.Unset
			return nil, fmt.Errorf("%w: no locally feasible value at vertex %d", ErrInfeasible, v)
		}
	}
	return out, nil
}
