// Package model builds the concrete joint distributions used in the paper's
// applications (Section 5 of Feng & Yin, PODC 2018) as Gibbs specifications:
// the hardcore model (weighted independent sets), antiferromagnetic 2-spin
// systems (including Ising), proper q- and list-colorings, monomer–dimer
// matchings (as a vertex model on the line graph), and weighted hypergraph
// matchings (as a vertex model on the intersection graph). It also provides
// the uniqueness thresholds at which the paper's computational phase
// transition occurs.
package model

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/gibbs"
	"repro/internal/graph"
)

// Spin values for two-state models.
const (
	// Out marks a vertex excluded from the independent set / an unmatched
	// edge.
	Out = 0
	// In marks a vertex in the independent set / a matched edge.
	In = 1
)

// Hardcore returns the hardcore (weighted independent set) Gibbs
// distribution on g with fugacity λ > 0: configurations are subsets of
// vertices, hard constraints forbid adjacent occupied vertices, and a
// configuration with k occupied vertices has weight λ^k. This is the model
// of the paper's headline phase transition (Section 5).
//
// All factors are emitted as dense weight tables shared across vertices and
// edges, so the compiled engine (gibbs.Compile) adopts them without
// re-enumeration and the closure path reads the same tables.
func Hardcore(g *graph.Graph, lambda float64) (*gibbs.Spec, error) {
	if lambda <= 0 {
		return nil, fmt.Errorf("model: hardcore fugacity must be positive, got %v", lambda)
	}
	activity := activityTable(lambda)
	// (In, In) is forbidden; index is a_u·2 + a_v.
	edge := []float64{1, 1, 1, 0}
	factors := make([]gibbs.Factor, 0, g.N()+g.M())
	for v := 0; v < g.N(); v++ {
		factors = append(factors, gibbs.UnaryTable(v, activity, "activity"))
	}
	for _, e := range g.Edges() {
		factors = append(factors, gibbs.PairTable(e.U, e.V, edge, "hc-edge"))
	}
	return gibbs.NewSpec(g, 2, factors)
}

// activityTable is the shared unary table of a two-state model with
// external field λ: weight 1 for Out, λ for In.
func activityTable(lambda float64) []float64 {
	t := make([]float64, 2)
	t[Out] = 1
	t[In] = lambda
	return t
}

// TwoSpinParams parameterizes a 2-spin system with edge interaction matrix
// [[β, 1], [1, γ]] and external field λ (the (β, γ, λ) convention of
// Li–Lu–Yin, with β the weight of an Out–Out edge and γ the weight of an
// In–In edge). The system is antiferromagnetic when βγ < 1. Hardcore is
// (β, γ, λ) = (1, 0, λ); Ising with uniform coupling is β = γ.
type TwoSpinParams struct {
	Beta, Gamma, Lambda float64
}

// Validate checks admissibility of the parameters.
func (p TwoSpinParams) Validate() error {
	if p.Beta < 0 || p.Gamma < 0 {
		return errors.New("model: 2-spin requires beta, gamma >= 0")
	}
	if p.Beta == 0 && p.Gamma == 0 {
		return errors.New("model: 2-spin requires beta > 0 or gamma > 0")
	}
	if p.Lambda <= 0 {
		return errors.New("model: 2-spin requires lambda > 0")
	}
	return nil
}

// TwoSpin returns the 2-spin Gibbs distribution on g: each vertex takes a
// spin in {Out, In}; each edge (u, v) contributes β when both spins are Out,
// γ when both are In, and 1 otherwise; each In vertex contributes λ.
func TwoSpin(g *graph.Graph, p TwoSpinParams) (*gibbs.Spec, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	activity := activityTable(p.Lambda)
	edge := make([]float64, 4)
	edge[Out*2+Out] = p.Beta
	edge[Out*2+In] = 1
	edge[In*2+Out] = 1
	edge[In*2+In] = p.Gamma
	factors := make([]gibbs.Factor, 0, g.N()+g.M())
	for v := 0; v < g.N(); v++ {
		factors = append(factors, gibbs.UnaryTable(v, activity, "activity"))
	}
	for _, e := range g.Edges() {
		factors = append(factors, gibbs.PairTable(e.U, e.V, edge, "2spin-edge"))
	}
	return gibbs.NewSpec(g, 2, factors)
}

// Ising returns the antiferromagnetic Ising model with edge weight
// β = γ = b (0 < b < 1 for antiferromagnetic) and field λ.
func Ising(g *graph.Graph, b, lambda float64) (*gibbs.Spec, error) {
	return TwoSpin(g, TwoSpinParams{Beta: b, Gamma: b, Lambda: lambda})
}

// Coloring returns the uniform distribution over proper q-colorings of g:
// hard disequality constraints on edges.
func Coloring(g *graph.Graph, q int) (*gibbs.Spec, error) {
	if q < 1 {
		return nil, fmt.Errorf("model: coloring requires q >= 1, got %d", q)
	}
	neq := disequalityTable(q)
	factors := make([]gibbs.Factor, 0, g.M())
	for _, e := range g.Edges() {
		factors = append(factors, gibbs.PairTable(e.U, e.V, neq, "neq"))
	}
	return gibbs.NewSpec(g, q, factors)
}

// disequalityTable is the shared q×q table of the proper-coloring edge
// constraint: 0 on the diagonal, 1 elsewhere.
func disequalityTable(q int) []float64 {
	t := make([]float64, q*q)
	for cu := 0; cu < q; cu++ {
		for cv := 0; cv < q; cv++ {
			if cu != cv {
				t[cu*q+cv] = 1
			}
		}
	}
	return t
}

// ListColoring returns the uniform distribution over proper list colorings
// of g, with lists[v] ⊆ {0..q-1} the available colors at v. This is the
// paradigm example of the paper's introduction; conditioning a q-coloring
// instance on a pinned boundary yields exactly a list-coloring instance
// (Remark 2.2).
func ListColoring(g *graph.Graph, q int, lists [][]int) (*gibbs.Spec, error) {
	if len(lists) != g.N() {
		return nil, fmt.Errorf("model: %d lists for %d vertices", len(lists), g.N())
	}
	factors := make([]gibbs.Factor, 0, g.N()+g.M())
	for v := 0; v < g.N(); v++ {
		allowed := make([]float64, q)
		for _, c := range lists[v] {
			if c < 0 || c >= q {
				return nil, fmt.Errorf("model: color %d outside palette q=%d at vertex %d", c, q, v)
			}
			allowed[c] = 1
		}
		factors = append(factors, gibbs.UnaryTable(v, allowed, "list"))
	}
	neq := disequalityTable(q)
	for _, e := range g.Edges() {
		factors = append(factors, gibbs.PairTable(e.U, e.V, neq, "neq"))
	}
	return gibbs.NewSpec(g, q, factors)
}

// MatchingModel is a monomer–dimer (weighted matching) model expressed as a
// vertex model: the Gibbs specification lives on the line graph L(G), one
// binary variable per edge of the original graph, with a hard "at most one
// matched edge per vertex" constraint realized by pairwise conflicts (edges
// of L(G)) and activity λ per matched edge. Distances in L(G) differ from
// distances in G by at most a factor 2 plus 1, so locality is preserved —
// this is the duality noted at the end of Section 5.
type MatchingModel struct {
	// Spec is the Gibbs specification on the line graph.
	Spec *gibbs.Spec
	// Base is the original graph G.
	Base *graph.Graph
	// EdgeList maps line-graph vertex index -> original edge.
	EdgeList []graph.Edge
	// Lambda is the edge activity.
	Lambda float64
}

// Matching returns the monomer–dimer model on g with edge activity λ > 0.
func Matching(g *graph.Graph, lambda float64) (*MatchingModel, error) {
	if lambda <= 0 {
		return nil, fmt.Errorf("model: matching activity must be positive, got %v", lambda)
	}
	lg, edges := g.LineGraph()
	spec, err := Hardcore(lg, lambda)
	if err != nil {
		return nil, err
	}
	return &MatchingModel{Spec: spec, Base: g, EdgeList: edges, Lambda: lambda}, nil
}

// IsMatching reports whether the line-graph configuration encodes a valid
// matching of the base graph.
func (m *MatchingModel) IsMatching(cfg []int) bool {
	used := make(map[int]bool)
	for i, x := range cfg {
		if x != In {
			continue
		}
		e := m.EdgeList[i]
		if used[e.U] || used[e.V] {
			return false
		}
		used[e.U] = true
		used[e.V] = true
	}
	return true
}

// HypergraphMatchingModel is the weighted hypergraph matching model
// (Song–Yin–Zhao) as a vertex model on the intersection graph of
// hyperedges: a hypergraph matching is an independent set of the
// intersection graph, with activity λ per matched hyperedge.
type HypergraphMatchingModel struct {
	Spec   *gibbs.Spec
	Base   *graph.Hypergraph
	Lambda float64
}

// HypergraphMatching returns the weighted hypergraph matching model on h
// with activity λ > 0.
func HypergraphMatching(h *graph.Hypergraph, lambda float64) (*HypergraphMatchingModel, error) {
	if lambda <= 0 {
		return nil, fmt.Errorf("model: hypergraph matching activity must be positive, got %v", lambda)
	}
	ig := h.IntersectionGraph()
	spec, err := Hardcore(ig, lambda)
	if err != nil {
		return nil, err
	}
	return &HypergraphMatchingModel{Spec: spec, Base: h, Lambda: lambda}, nil
}

// LambdaC returns the hardcore uniqueness threshold on the infinite Δ-regular
// tree, λc(Δ) = (Δ−1)^(Δ−1) / (Δ−2)^Δ (Section 5; Weitz). It requires
// Δ >= 3; for Δ <= 2 uniqueness holds for every λ and the function returns
// +Inf.
func LambdaC(delta int) float64 {
	if delta <= 2 {
		return math.Inf(1)
	}
	d := float64(delta)
	return math.Pow(d-1, d-1) / math.Pow(d-2, d)
}

// LambdaCHypergraph returns the hypergraph matching uniqueness threshold
// λc(r, Δ) = (Δ−1)^(Δ−1) / (r−1) / (Δ−2)^Δ (Song–Yin–Zhao, as quoted in
// Section 5). Requires Δ >= 3 and r >= 2; Δ <= 2 returns +Inf.
func LambdaCHypergraph(r, delta int) float64 {
	if delta <= 2 {
		return math.Inf(1)
	}
	if r < 2 {
		r = 2
	}
	d := float64(delta)
	return math.Pow(d-1, d-1) / (float64(r-1) * math.Pow(d-2, d))
}

// AlphaStar returns α* ≈ 1.76322, the positive root of x = e^{1/x}, the
// coloring threshold of Gamarnik–Katz–Misra quoted in Section 5 (q ≥ αΔ,
// α > α*, triangle-free graphs).
func AlphaStar() float64 {
	// Fixed-point iteration x <- e^{1/x} converges quickly from x0 = 1.7.
	x := 1.7
	for i := 0; i < 128; i++ {
		x = math.Exp(1 / x)
	}
	return x
}

// IsingUniquenessInterval returns the open interval (lo, hi) of edge
// activities b for which the antiferromagnetic/ferromagnetic Ising model
// with no external field is in the uniqueness regime on the Δ-regular tree:
// b ∈ ((Δ−2)/Δ, Δ/(Δ−2)). For Δ <= 2 it returns (0, +Inf).
func IsingUniquenessInterval(delta int) (lo, hi float64) {
	if delta <= 2 {
		return 0, math.Inf(1)
	}
	d := float64(delta)
	return (d - 2) / d, d / (d - 2)
}

// MatchingDecayRate returns the correlation decay rate for the monomer–dimer
// model with activity λ on graphs of maximum degree Δ:
// rate = 1 − 2/(1+√(1+4λΔ)) = 1 − Θ(1/√(λΔ)), following
// Bayati–Gamarnik–Katz–Nair–Tetali. The O(√Δ log³ n) matching sampler of
// Section 5 follows because the SSM radius scales like 1/(1−rate) = Θ(√Δ).
func MatchingDecayRate(lambda float64, delta int) float64 {
	if delta <= 0 || lambda <= 0 {
		return 0
	}
	s := math.Sqrt(1 + 4*lambda*float64(delta))
	return 1 - 2/(1+s)
}

// HardcoreDecayRate returns an upper bound on the per-step contraction of
// the hardcore SAW-tree recursion at fugacity λ on trees of branching Δ−1,
// valid in the uniqueness regime λ < λc(Δ). It returns 1 when λ ≥ λc(Δ)
// (no contraction guaranteed). The bound used is the standard derivative
// bound of the log-ratio recursion at its fixed point.
func HardcoreDecayRate(lambda float64, delta int) float64 {
	if delta <= 2 {
		// On paths the recursion contracts geometrically for every λ.
		return lambda / (1 + lambda)
	}
	if lambda >= LambdaC(delta) {
		return 1
	}
	d := float64(delta - 1)
	// Fixed point x* of x = λ/(1+x)^d; contraction is |f'(x*)| = d·x*/(1+x*).
	// Damped iteration avoids the 2-cycle of the plain recursion near the
	// threshold.
	x := lambda
	for i := 0; i < 512; i++ {
		x = 0.5*x + 0.5*lambda/math.Pow(1+x, d)
	}
	rate := d * x / (1 + x)
	if rate > 1 {
		rate = 1
	}
	return rate
}
