// Package graph provides the undirected-graph substrate used throughout the
// reproduction of "On Local Distributed Sampling and Counting" (Feng & Yin,
// PODC 2018): simple graphs with adjacency lists, BFS balls and distances,
// power graphs (for the SLOCAL-to-LOCAL transformation on G^(r+1)), line
// graphs (for edge models such as matchings), and induced subgraphs.
//
// Vertices are integers 0..n-1. All graphs are simple (no self loops, no
// parallel edges) and undirected.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is a simple undirected graph on vertices 0..n-1.
//
// The zero value is an empty graph with no vertices. Use New to create a
// graph with a fixed vertex count and AddEdge to insert edges.
type Graph struct {
	n   int
	adj [][]int
	m   int
}

// Edge is an undirected edge {U, V} with U < V.
type Edge struct {
	U, V int
}

var (
	// ErrVertexRange indicates a vertex index outside [0, n).
	ErrVertexRange = errors.New("graph: vertex out of range")
	// ErrSelfLoop indicates an attempt to add a self loop.
	ErrSelfLoop = errors.New("graph: self loops are not allowed")
)

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge {u, v}. Adding an existing edge is a
// no-op. Self loops and out-of-range endpoints are errors.
func (g *Graph) AddEdge(u, v int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("%w: edge (%d,%d) with n=%d", ErrVertexRange, u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("%w: (%d,%d)", ErrSelfLoop, u, v)
	}
	if g.HasEdge(u, v) {
		return nil
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.m++
	return nil
}

// MustAddEdge is AddEdge for static construction in tests and generators; it
// panics on invalid input, which indicates a programming error.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	// Scan the shorter list.
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if w == b {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of v. The returned slice is shared
// with the graph's internal state and must not be modified by the caller.
func (g *Graph) Neighbors(v int) []int {
	if v < 0 || v >= g.n {
		return nil
	}
	return g.adj[v]
}

// NeighborsCopy returns a fresh copy of v's adjacency list, sorted.
func (g *Graph) NeighborsCopy(v int) []int {
	nb := g.Neighbors(v)
	out := make([]int, len(nb))
	copy(out, nb)
	sort.Ints(out)
	return out
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	if v < 0 || v >= g.n {
		return 0
	}
	return len(g.adj[v])
}

// MaxDegree returns the maximum degree Δ of the graph (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) > d {
			d = len(g.adj[v])
		}
	}
	return d
}

// Edges returns all edges with U < V, sorted lexicographically.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				es = append(es, Edge{U: u, V: v})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// SortAdjacency sorts every adjacency list in increasing order. Generators
// call this so that iteration order is deterministic.
func (g *Graph) SortAdjacency() {
	for v := 0; v < g.n; v++ {
		sort.Ints(g.adj[v])
	}
}

// BFSDistances returns dist[u] = distG(src, u), with -1 for unreachable
// vertices.
func (g *Graph) BFSDistances(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= g.n {
		return dist
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[u] {
			if dist[w] == -1 {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Dist returns distG(u, v), or -1 if v is unreachable from u.
func (g *Graph) Dist(u, v int) int {
	if u == v {
		if u < 0 || u >= g.n {
			return -1
		}
		return 0
	}
	d := g.BFSDistances(u)
	if v < 0 || v >= g.n {
		return -1
	}
	return d[v]
}

// Ball returns B_r(v) = {u : distG(v, u) <= r}, sorted increasingly.
// A negative radius yields an empty ball.
func (g *Graph) Ball(v, r int) []int {
	if v < 0 || v >= g.n || r < 0 {
		return nil
	}
	dist := map[int]int{v: 0}
	queue := []int{v}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if dist[u] == r {
			continue
		}
		for _, w := range g.adj[u] {
			if _, seen := dist[w]; !seen {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	out := make([]int, 0, len(dist))
	for u := range dist {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// IsConnected reports whether the graph is connected (vacuously true for
// n <= 1).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	d := g.BFSDistances(0)
	for _, x := range d {
		if x < 0 {
			return false
		}
	}
	return true
}

// SetDiameter returns max over u,v in S of distG(u, v) measured in the full
// graph (the "weak diameter" of S), or -1 if some pair is disconnected.
// An empty or singleton set has diameter 0.
func (g *Graph) SetDiameter(set []int) int {
	if len(set) <= 1 {
		return 0
	}
	diam := 0
	for _, u := range set {
		d := g.BFSDistances(u)
		for _, v := range set {
			if d[v] < 0 {
				return -1
			}
			if d[v] > diam {
				diam = d[v]
			}
		}
	}
	return diam
}

// Power returns the k-th power graph G^k: same vertex set, with an edge
// between every pair of distinct vertices at distance <= k in G.
// k <= 0 returns an edgeless graph.
func (g *Graph) Power(k int) *Graph {
	p := New(g.n)
	if k <= 0 {
		return p
	}
	for v := 0; v < g.n; v++ {
		for _, u := range g.Ball(v, k) {
			if u > v {
				p.MustAddEdge(v, u)
			}
		}
	}
	p.SortAdjacency()
	return p
}

// IsTriangleFree reports whether the graph contains no triangle.
func (g *Graph) IsTriangleFree() bool {
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if v < u {
				continue
			}
			for _, w := range g.adj[v] {
				if w > v && g.HasEdge(u, w) {
					return false
				}
			}
		}
	}
	return true
}

// LineGraph returns the line graph L(G) together with the edge list of G in
// the order matching L(G)'s vertices: vertex i of L(G) corresponds to
// edges[i] of G, and two vertices of L(G) are adjacent iff the corresponding
// edges of G share an endpoint. This is the duality used to express edge
// models (matchings) as vertex models; it contracts distances by at most a
// constant factor, preserving locality.
func (g *Graph) LineGraph() (*Graph, []Edge) {
	edges := g.Edges()
	idx := make(map[Edge]int, len(edges))
	for i, e := range edges {
		idx[e] = i
	}
	lg := New(len(edges))
	for v := 0; v < g.n; v++ {
		// All edges incident to v form a clique in L(G).
		inc := make([]int, 0, len(g.adj[v]))
		for _, u := range g.adj[v] {
			e := Edge{U: min(u, v), V: max(u, v)}
			inc = append(inc, idx[e])
		}
		for i := 0; i < len(inc); i++ {
			for j := i + 1; j < len(inc); j++ {
				lg.MustAddEdge(inc[i], inc[j])
			}
		}
	}
	lg.SortAdjacency()
	return lg, edges
}

// Equal reports whether g and h are identical as labeled graphs (same vertex
// count and same edge set).
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.m != h.m {
		return false
	}
	for v := 0; v < g.n; v++ {
		if len(g.adj[v]) != len(h.adj[v]) {
			return false
		}
		for _, u := range g.adj[v] {
			if !h.HasEdge(v, u) {
				return false
			}
		}
	}
	return true
}

// String returns a compact description of the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d Δ=%d}", g.n, g.m, g.MaxDegree())
}
