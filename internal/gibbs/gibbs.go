// Package gibbs implements Gibbs distributions specified by weighted
// constraint satisfaction problems (Definition 2.3 of Feng & Yin, PODC
// 2018): a tuple (G, Σ, F) of a graph, a finite alphabet, and a collection
// of nonnegative factors over local scopes. It provides configuration
// weights, locality (Definition 2.4), local feasibility and local
// admissibility (Definition 2.5), and instances (G, x, τ) with pinned
// partial configurations realizing the paper's self-reducibility
// (Definition 2.2).
//
// Two evaluation paths exist. The Spec methods (Weight, PartialWeight,
// LocallyFeasibleAt, ...) dispatch through each factor's Eval closure and
// are the reference semantics. The compiled engine (Compile / Spec.Compiled)
// precomputes dense weight tables per factor and a flat CSR factor index,
// exposing zero-allocation kernels (CondWeights, WeightRatioOnBall with
// reusable scratch, PartialWeightAtCells1) used by every hot consumer: the
// Glauber sampler, the brute-force referee, the JVV/boost/SSM reductions,
// and the correlation-decay ball estimator. See compile.go.
//
// Two size caps govern how much the engine precomputes, sharing the
// overflow-safe powSize arithmetic: DefaultTableCap bounds one factor's
// dense table (q^|Scope| entries; larger factors stay on their Eval
// closure), and DefaultCondCap bounds one vertex's conditional-CDF cache
// (q^deg(v)·q entries; larger neighborhoods stay on the sweep-plan walk —
// see cond.go, and SetCondCapForTest to shrink the caps in tests).
package gibbs

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/dist"
	"repro/internal/graph"
)

// Factor is a constraint (f, S): a nonnegative function over the
// configurations of its scope S ⊆ V. The function receives the values of
// the scope vertices in scope order. A factor is "hard" if it can evaluate
// to zero.
type Factor struct {
	// Scope lists the vertices the factor reads, in a fixed order.
	Scope []int
	// Eval returns the nonnegative weight of the given assignment to Scope
	// (assignment indexed parallel to Scope). When Table is set the table
	// is authoritative: NewSpec replaces Eval with a table lookup so the
	// closure and compiled paths cannot diverge, and any caller-supplied
	// Eval is ignored.
	Eval func(assign []int) float64
	// Table optionally gives the factor as a dense weight table over all
	// q^|Scope| scope assignments, indexed by the big-endian mixed-radix
	// encoding index = Σ_j assign[j]·q^(s−1−j). Table-backed factors are
	// adopted verbatim by the compiled engine regardless of the table-size
	// cap, and the table may be shared between factors (it is never
	// modified).
	Table []float64
	// Name is an optional human-readable label used in diagnostics.
	Name string
}

// UnaryTable returns a table-backed factor on the single vertex v with
// weights[x] the weight of symbol x. The slice is retained (and may be
// shared across factors).
func UnaryTable(v int, weights []float64, name string) Factor {
	return Factor{Scope: []int{v}, Table: weights, Name: name}
}

// PairTable returns a table-backed factor on the ordered pair (u, v):
// table[xu*q+xv] is the weight of the assignment (u, v) = (xu, xv) for the
// spec's alphabet size q. The slice is retained (and may be shared across
// factors); its length is validated by NewSpec, the single authority on
// table shape.
func PairTable(u, v int, table []float64, name string) Factor {
	return Factor{Scope: []int{u, v}, Table: table, Name: name}
}

// Spec specifies a Gibbs distribution (G, Σ, F). A Spec must not be
// mutated after first use: Locality and the compiled engine are cached on
// first access.
type Spec struct {
	// G is the underlying interaction graph.
	G *graph.Graph
	// Q is the alphabet size |Σ|; symbols are 0..Q-1.
	Q int
	// Factors is the constraint collection F.
	Factors []Factor

	// Flat CSR per-vertex factor index: the factors whose scope contains v
	// are Factors[i] for i in factorIdx[factorOff[v]:factorOff[v+1]]. Per
	// vertex the indices are increasing; a vertex repeated in one scope
	// contributes one entry per occurrence (mirroring the historical
	// [][]int index).
	factorOff []int32
	factorIdx []int32

	// Locality is cached after the first computation: it is consulted on
	// every Boost/SSM/JVV call but depends only on the immutable factor
	// scopes.
	locOnce sync.Once
	locEll  int
	locErr  error

	// The compiled engine is likewise built once on demand.
	compileOnce sync.Once
	compiled    *Compiled
}

var (
	// ErrAlphabet indicates a non-positive alphabet size.
	ErrAlphabet = errors.New("gibbs: alphabet size must be positive")
	// ErrScope indicates a factor scope referencing vertices outside the
	// graph.
	ErrScope = errors.New("gibbs: factor scope out of range")
	// ErrInfeasible indicates that a configuration required to be feasible
	// is not.
	ErrInfeasible = errors.New("gibbs: infeasible configuration")
)

// NewSpec validates and returns a Gibbs specification, building the
// per-vertex factor index. Table-backed factors get an Eval synthesized
// from their table so the closure path stays available. The factor slice
// is copied (shallowly), so the caller's slice is not written to.
func NewSpec(g *graph.Graph, q int, factors []Factor) (*Spec, error) {
	if q <= 0 {
		return nil, ErrAlphabet
	}
	s := &Spec{G: g, Q: q, Factors: append([]Factor(nil), factors...)}
	counts := make([]int32, g.N()+1)
	for i, f := range factors {
		if len(f.Scope) == 0 {
			return nil, fmt.Errorf("gibbs: factor %d (%s) has empty scope", i, f.Name)
		}
		if f.Table != nil {
			want, err := tableSize(q, len(f.Scope))
			if err != nil {
				return nil, fmt.Errorf("gibbs: factor %d (%s): %v", i, f.Name, err)
			}
			if len(f.Table) != want {
				return nil, fmt.Errorf("gibbs: factor %d (%s) table has %d entries, want q^%d = %d",
					i, f.Name, len(f.Table), len(f.Scope), want)
			}
			// The table is authoritative: both evaluation paths read it.
			s.Factors[i].Eval = tableEval(f.Table, q)
		} else if f.Eval == nil {
			return nil, fmt.Errorf("gibbs: factor %d (%s) has nil Eval", i, f.Name)
		}
		for _, v := range f.Scope {
			if v < 0 || v >= g.N() {
				return nil, fmt.Errorf("%w: factor %d (%s) vertex %d", ErrScope, i, f.Name, v)
			}
			counts[v+1]++
		}
	}
	s.factorOff = make([]int32, g.N()+1)
	for v := 0; v < g.N(); v++ {
		s.factorOff[v+1] = s.factorOff[v] + counts[v+1]
	}
	s.factorIdx = make([]int32, s.factorOff[g.N()])
	fill := make([]int32, g.N())
	copy(fill, s.factorOff[:g.N()])
	for i, f := range factors {
		for _, v := range f.Scope {
			s.factorIdx[fill[v]] = int32(i)
			fill[v]++
		}
	}
	return s, nil
}

// tableSize returns q^s, erroring when the table would be absurdly large.
func tableSize(q, s int) (int, error) {
	size, ok := powSize(q, s, 1<<31)
	if !ok {
		return 0, fmt.Errorf("table over q^%d assignments too large", s)
	}
	return int(size), nil
}

// powSize returns q^s in int64, reporting whether it stays within lim —
// the overflow-safe size arithmetic shared by the factor-table cap
// (DefaultTableCap, via tableSize) and the conditional-CDF cache's
// per-vertex entry cap (DefaultCondCap, see cond.go). The pre-multiply
// guard is exact: it rejects iff the product would exceed lim.
func powSize(q, s int, lim int64) (int64, bool) {
	size := int64(1)
	for j := 0; j < s; j++ {
		if size > lim/int64(q) {
			return 0, false
		}
		size *= int64(q)
	}
	return size, size <= lim
}

// tableEval synthesizes an Eval closure from a dense weight table using the
// big-endian mixed-radix encoding.
func tableEval(table []float64, q int) func([]int) float64 {
	return func(assign []int) float64 {
		idx := 0
		for _, x := range assign {
			idx = idx*q + x
		}
		return table[idx]
	}
}

// N returns the number of variables (vertices of G).
func (s *Spec) N() int { return s.G.N() }

// FactorsAt returns the indices of factors whose scope contains v, in
// increasing order (one entry per scope occurrence). The slice aliases the
// spec's flat CSR index and must not be modified.
func (s *Spec) FactorsAt(v int) []int32 {
	if v < 0 || v+1 >= len(s.factorOff) {
		return nil
	}
	lo, hi := s.factorOff[v], s.factorOff[v+1]
	if lo == hi {
		return nil
	}
	return s.factorIdx[lo:hi]
}

// Compiled returns the compiled evaluation engine for the spec, building
// it on first use with the default table-size cap. The engine is shared;
// its pure kernels are safe for concurrent use.
func (s *Spec) Compiled() *Compiled {
	s.compileOnce.Do(func() { s.compiled = Compile(s) })
	return s.compiled
}

// Locality returns ℓ = max over factors of the diameter of the factor scope
// in G (Definition 2.4). The distribution is "local" when this is O(1); all
// models shipped in internal/model have ℓ ≤ 1. Returns an error when some
// scope spans disconnected parts of G. The result is computed once and
// cached.
func (s *Spec) Locality() (int, error) {
	s.locOnce.Do(func() { s.locEll, s.locErr = s.locality() })
	return s.locEll, s.locErr
}

func (s *Spec) locality() (int, error) {
	ell := 0
	for i, f := range s.Factors {
		d := s.G.SetDiameter(f.Scope)
		if d < 0 {
			return 0, fmt.Errorf("gibbs: factor %d (%s) scope disconnected in G", i, f.Name)
		}
		if d > ell {
			ell = d
		}
	}
	return ell, nil
}

// evalFactor evaluates factor i on a configuration, requiring all scope
// variables assigned; ok is false otherwise.
func (s *Spec) evalFactor(i int, c dist.Config) (val float64, ok bool) {
	f := s.Factors[i]
	assign := make([]int, len(f.Scope))
	for j, v := range f.Scope {
		if v >= len(c) || c[v] == dist.Unset {
			return 0, false
		}
		assign[j] = c[v]
	}
	return f.Eval(assign), true
}

// Weight returns w(σ) = Π f(σ_S) over all factors (equation (1) of the
// paper). The configuration must be total.
func (s *Spec) Weight(c dist.Config) (float64, error) {
	if !c.IsTotal() {
		return 0, errors.New("gibbs: Weight requires a total configuration")
	}
	w := 1.0
	for i := range s.Factors {
		val, ok := s.evalFactor(i, c)
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
// assigned under the partial configuration σ (the quantity in Definition
// 2.5 when σ's domain is Λ).
func (s *Spec) PartialWeight(c dist.Config) float64 {
	w := 1.0
	for i := range s.Factors {
		val, ok := s.evalFactor(i, c)
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

// LocallyFeasible reports whether the partial configuration σ violates no
// constraint that is fully contained in its assigned domain (Definition
// 2.5).
func (s *Spec) LocallyFeasible(c dist.Config) bool {
	return s.PartialWeight(c) > 0
}

// LocallyFeasibleAt reports whether the constraints involving vertex v and
// fully assigned under c are all satisfied. This suffices to check local
// feasibility incrementally when extending a locally feasible configuration
// at v.
func (s *Spec) LocallyFeasibleAt(c dist.Config, v int) bool {
	for _, i := range s.FactorsAt(v) {
		val, ok := s.evalFactor(int(i), c)
		if ok && val == 0 {
			return false
		}
	}
	return true
}

// WeightRatioOnBall returns w(σ')/w(σ) where σ' and σ are total
// configurations differing only inside the vertex set D. Only factors whose
// scope intersects D contribute, mirroring equation (12) of the paper. The
// factors are visited in increasing index order so the rounded result is
// deterministic. The denominator factors must be positive; an error is
// returned otherwise.
func (s *Spec) WeightRatioOnBall(sigmaNew, sigmaOld dist.Config, d []int) (float64, error) {
	var touched []int
	seen := make(map[int]bool)
	for _, v := range d {
		for _, i := range s.FactorsAt(v) {
			if !seen[int(i)] {
				seen[int(i)] = true
				touched = append(touched, int(i))
			}
		}
	}
	sort.Ints(touched)
	ratio := 1.0
	for _, i := range touched {
		num, ok1 := s.evalFactor(i, sigmaNew)
		den, ok2 := s.evalFactor(i, sigmaOld)
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

// GreedyCompletion extends the partial configuration c to a total, locally
// feasible configuration by scanning the free variables in increasing order
// and assigning the smallest symbol that keeps the configuration locally
// feasible. For locally admissible distributions (Definition 2.5) this
// always produces a feasible configuration; it is the "sequential local
// oblivious" construction of Remark 2.3. Returns an error when some vertex
// has no locally feasible symbol.
func (s *Spec) GreedyCompletion(c dist.Config) (dist.Config, error) {
	out := c.Clone()
	for v := 0; v < s.N(); v++ {
		if out[v] != dist.Unset {
			continue
		}
		done := false
		for x := 0; x < s.Q; x++ {
			out[v] = x
			if s.LocallyFeasibleAt(out, v) {
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
