package graph

import (
	"math/rand"
	"testing"
)

func TestHypergraphBasics(t *testing.T) {
	h := NewHypergraph(6)
	if err := h.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := h.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if err := h.AddEdge(4, 5, 3); err != nil {
		t.Fatal(err)
	}
	if h.N() != 6 || h.M() != 3 {
		t.Fatalf("n=%d m=%d", h.N(), h.M())
	}
	if h.VertexDegree(2) != 2 {
		t.Errorf("deg(2) = %d", h.VertexDegree(2))
	}
	if h.MaxVertexDegree() != 2 {
		t.Errorf("max degree = %d", h.MaxVertexDegree())
	}
}

func TestHypergraphEdgeErrors(t *testing.T) {
	h := NewHypergraph(3)
	if err := h.AddEdge(); err == nil {
		t.Error("empty hyperedge accepted")
	}
	if err := h.AddEdge(0, 7); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if err := h.AddEdge(1, 1, 1); err != nil {
		t.Errorf("dedup edge rejected: %v", err)
	}
	if got := h.Edge(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("dedup edge = %v", got)
	}
	if h.Edge(99) != nil {
		t.Error("out-of-range edge index should be nil")
	}
}

func TestIntersectionGraph(t *testing.T) {
	h := NewHypergraph(5)
	_ = h.AddEdge(0, 1, 2) // edge 0
	_ = h.AddEdge(2, 3)    // edge 1 — shares vertex 2 with edge 0
	_ = h.AddEdge(3, 4)    // edge 2 — shares vertex 3 with edge 1
	ig := h.IntersectionGraph()
	if ig.N() != 3 {
		t.Fatalf("intersection graph n = %d", ig.N())
	}
	if !ig.HasEdge(0, 1) || !ig.HasEdge(1, 2) || ig.HasEdge(0, 2) {
		t.Errorf("intersection edges wrong: %v", ig.Edges())
	}
}

func TestRandomUniformHypergraph(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h, err := RandomUniformHypergraph(10, 7, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != 7 {
		t.Fatalf("m = %d", h.M())
	}
	for i := 0; i < h.M(); i++ {
		if len(h.Edge(i)) != 3 {
			t.Fatalf("edge %d has size %d", i, len(h.Edge(i)))
		}
	}
	if _, err := RandomUniformHypergraph(3, 1, 5, rng); err == nil {
		t.Error("r > n accepted")
	}
}
