package decay

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/model"
)

// MatchingEstimator computes monomer–dimer (weighted matching) marginals via
// the path-tree recursion of Bayati–Gamarnik–Katz–Nair–Tetali [BGKNT 07]
// (Godsil's theorem makes the recursion exact at full depth; truncation
// error decays at rate 1 − Ω(1/√(λΔ)), which yields the paper's
// O(√Δ log³ n) matching sampler). The estimator operates on a
// model.MatchingModel, whose variables are the edges of the base graph; a
// pinned configuration pins edges In (matched) or Out (excluded).
type MatchingEstimator struct {
	m *model.MatchingModel
	// incident[v] lists the line-graph indices of edges incident to v.
	incident [][]int
}

// NewMatchingEstimator returns an estimator for the given matching model.
func NewMatchingEstimator(m *model.MatchingModel) *MatchingEstimator {
	inc := make([][]int, m.Base.N())
	for i, e := range m.EdgeList {
		inc[e.U] = append(inc[e.U], i)
		inc[e.V] = append(inc[e.V], i)
	}
	return &MatchingEstimator{m: m, incident: inc}
}

// pinState captures the effect of a pinned partial configuration on the base
// graph: removed edges (pinned Out) and saturated vertices (endpoints of
// pinned-In edges).
type pinState struct {
	removedEdge []bool
	saturated   []bool
}

func (e *MatchingEstimator) pins(pinned dist.Config) (*pinState, error) {
	if len(pinned) != len(e.m.EdgeList) {
		return nil, fmt.Errorf("decay: pinning length %d != edges %d", len(pinned), len(e.m.EdgeList))
	}
	st := &pinState{
		removedEdge: make([]bool, len(e.m.EdgeList)),
		saturated:   make([]bool, e.m.Base.N()),
	}
	for i, x := range pinned {
		switch x {
		case dist.Unset:
		case model.Out:
			st.removedEdge[i] = true
		case model.In:
			ed := e.m.EdgeList[i]
			if st.saturated[ed.U] || st.saturated[ed.V] {
				return nil, fmt.Errorf("%w: two pinned-In edges share vertex", ErrPinnedInfeasible)
			}
			st.saturated[ed.U] = true
			st.saturated[ed.V] = true
		default:
			return nil, fmt.Errorf("decay: matching pin value %d", x)
		}
	}
	return st, nil
}

// unmatchedProb returns p_v = Pr[v unmatched] in the (pinned) graph with the
// vertices in `excluded` removed, computed on the path tree truncated at the
// given depth:
//
//	p_v = 1 / (1 + λ · Σ_{u ~ v available} p_u(G − v)).
//
// Saturated vertices have p = 0. A truncated leaf uses the worst-case value
// p = 1 (a free vertex with no remaining neighbors).
func (e *MatchingEstimator) unmatchedProb(st *pinState, v, depth int, excluded map[int]bool) float64 {
	if st.saturated[v] {
		return 0
	}
	if depth <= 0 {
		return 1
	}
	sum := 0.0
	excluded[v] = true
	for _, ei := range e.incident[v] {
		if st.removedEdge[ei] {
			continue
		}
		ed := e.m.EdgeList[ei]
		u := ed.U
		if u == v {
			u = ed.V
		}
		if excluded[u] || st.saturated[u] {
			continue
		}
		sum += e.unmatchedProb(st, u, depth-1, excluded)
	}
	delete(excluded, v)
	return 1 / (1 + e.m.Lambda*sum)
}

// Marginal estimates the conditional marginal of edge variable i (a vertex
// of the line graph) under the pinned configuration, truncated at the given
// depth. Using Z(e ∈ M)/Z(e ∉ M) = λ · p_u(G−e) · p_v(G−u):
func (e *MatchingEstimator) Marginal(pinned dist.Config, i, depth int) (dist.Dist, error) {
	if i < 0 || i >= len(e.m.EdgeList) {
		return nil, fmt.Errorf("decay: edge index %d out of range", i)
	}
	if x := pinned[i]; x != dist.Unset {
		return dist.Point(2, x), nil
	}
	st, err := e.pins(pinned)
	if err != nil {
		return nil, err
	}
	ed := e.m.EdgeList[i]
	if st.saturated[ed.U] || st.saturated[ed.V] {
		// An endpoint is already matched by a pinned edge: e cannot be
		// matched.
		return dist.Point(2, model.Out), nil
	}
	// p_u computed in G − e: temporarily remove edge i.
	st.removedEdge[i] = true
	excluded := make(map[int]bool)
	pu := e.unmatchedProb(st, ed.U, depth, excluded)
	// p_v computed in G − u.
	excluded[ed.U] = true
	pv := e.unmatchedProb(st, ed.V, depth, excluded)
	st.removedEdge[i] = false
	r := e.m.Lambda * pu * pv
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return nil, fmt.Errorf("decay: matching marginal ratio degenerate at edge %d", i)
	}
	return dist.Dist{1 / (1 + r), r / (1 + r)}, nil
}
