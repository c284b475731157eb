package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// Hypergraph is a hypergraph on vertices 0..n-1 with hyperedges given as
// vertex sets. It is the substrate for the weighted hypergraph matching
// model (Song–Yin–Zhao), one of the applications in Section 5 of the paper.
type Hypergraph struct {
	n     int
	edges [][]int
}

// NewHypergraph returns an empty hypergraph on n vertices.
func NewHypergraph(n int) *Hypergraph {
	if n < 0 {
		n = 0
	}
	return &Hypergraph{n: n}
}

// N returns the number of vertices.
func (h *Hypergraph) N() int { return h.n }

// M returns the number of hyperedges.
func (h *Hypergraph) M() int { return len(h.edges) }

// AddEdge inserts a hyperedge over the given vertex set. Duplicated vertices
// within an edge are deduplicated; empty edges and out-of-range vertices are
// errors.
func (h *Hypergraph) AddEdge(vs ...int) error {
	uniq := make(map[int]bool, len(vs))
	for _, v := range vs {
		if v < 0 || v >= h.n {
			return fmt.Errorf("%w: hyperedge vertex %d with n=%d", ErrVertexRange, v, h.n)
		}
		uniq[v] = true
	}
	if len(uniq) == 0 {
		return fmt.Errorf("graph: empty hyperedge")
	}
	e := make([]int, 0, len(uniq))
	for v := range uniq {
		e = append(e, v)
	}
	sort.Ints(e)
	h.edges = append(h.edges, e)
	return nil
}

// Edge returns the i-th hyperedge (sorted vertex list, shared slice).
func (h *Hypergraph) Edge(i int) []int {
	if i < 0 || i >= len(h.edges) {
		return nil
	}
	return h.edges[i]
}

// VertexDegree returns the number of hyperedges containing v.
func (h *Hypergraph) VertexDegree(v int) int {
	d := 0
	for _, e := range h.edges {
		for _, u := range e {
			if u == v {
				d++
			}
		}
	}
	return d
}

// MaxVertexDegree returns the maximum vertex degree Δ.
func (h *Hypergraph) MaxVertexDegree() int {
	deg := make([]int, h.n)
	for _, e := range h.edges {
		for _, u := range e {
			deg[u]++
		}
	}
	d := 0
	for _, x := range deg {
		if x > d {
			d = x
		}
	}
	return d
}

// IntersectionGraph returns the graph on hyperedges where two hyperedges are
// adjacent iff they share a vertex. This is the dual used to express
// hypergraph matchings as a vertex model: a hypergraph matching is exactly
// an independent set of the intersection graph.
func (h *Hypergraph) IntersectionGraph() *Graph {
	g := New(len(h.edges))
	// Bucket edges by vertex so intersecting pairs are found per vertex.
	byVertex := make([][]int, h.n)
	for i, e := range h.edges {
		for _, v := range e {
			byVertex[v] = append(byVertex[v], i)
		}
	}
	for _, bucket := range byVertex {
		for i := 0; i < len(bucket); i++ {
			for j := i + 1; j < len(bucket); j++ {
				_ = g.AddEdge(bucket[i], bucket[j])
			}
		}
	}
	g.SortAdjacency()
	return g
}

// RandomUniformHypergraph returns a hypergraph with m hyperedges, each a
// uniformly random r-subset of the n vertices. It returns an error when
// r > n.
func RandomUniformHypergraph(n, m, r int, rng *rand.Rand) (*Hypergraph, error) {
	if r > n || r <= 0 {
		return nil, fmt.Errorf("graph: random hypergraph requires 0 < r <= n, got r=%d n=%d", r, n)
	}
	h := NewHypergraph(n)
	perm := make([]int, n)
	for k := 0; k < m; k++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		if err := h.AddEdge(perm[:r]...); err != nil {
			return nil, err
		}
	}
	return h, nil
}
