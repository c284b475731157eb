package spec

// encode.go serializes instances back into the schema. Every factor the
// internal/model builders emit is table-backed, so any built instance —
// including the matching and hypergraph-matching models, whose instances
// live on derived graphs — round-trips: encode writes the instance's
// interaction graph as an explicit edge list and its factors as explicit
// tables, preserving factor order, and Build on the result reconstructs a
// gibbs.Instance whose weights (and exact partition function) match the
// original bit for bit.

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/graph"
)

// encode serializes the instance as an explicit-factors document on the
// instance's own interaction graph. Factors must be table-backed; a
// closure-only factor is not serializable and is reported as *Error.
func encode(name string, in *gibbs.Instance) (*File, error) {
	g := GraphFrom(in.Spec.G)
	return encodeOn(name, g, in)
}

// encodeWithGraph is encode with a caller-declared graph (typically a
// named generator) replacing the explicit edge list. The declaration is
// verified: it must build to exactly the instance's interaction graph.
func encodeWithGraph(name string, g Graph, in *gibbs.Instance) (*File, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	if len(g.Hyperedges) > 0 {
		return nil, errf("graph.hyperedges", "explicit-factors documents live on the interaction graph; declare its edges or a generator kind")
	}
	var built *graph.Graph
	if g.Kind != "" {
		gg, err := graph.Build(g.Kind, g.N)
		if err != nil {
			return nil, errf("graph.kind", "%v", err)
		}
		built = gg
	} else {
		gg := graph.New(g.N)
		for i, e := range g.Edges {
			if err := gg.AddEdge(e[0], e[1]); err != nil {
				return nil, errf(fmt.Sprintf("graph.edges[%d]", i), "%v", err)
			}
		}
		gg.SortAdjacency()
		built = gg
	}
	if !built.Equal(in.Spec.G) {
		return nil, errf("graph", "declared graph does not match the instance's interaction graph")
	}
	return encodeOn(name, g, in)
}

func encodeOn(name string, g Graph, in *gibbs.Instance) (*File, error) {
	f := &File{Version: Version, Name: name, Graph: g, Q: in.Q()}
	f.Factors = make([]Factor, len(in.Spec.Factors))
	for i, fc := range in.Spec.Factors {
		if fc.Table == nil {
			return nil, errf(fmt.Sprintf("factors[%d]", i), "factor %q has no weight table; closure factors are not serializable", fc.Name)
		}
		f.Factors[i] = Factor{
			Scope: append([]int(nil), fc.Scope...),
			Table: append([]float64(nil), fc.Table...),
			Name:  fc.Name,
		}
	}
	for v, x := range in.Pinned {
		if x != dist.Unset {
			f.Pin = append(f.Pin, Pin{V: v, X: x})
		}
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// GraphFrom declares g as an explicit edge list.
func GraphFrom(g *graph.Graph) Graph {
	out := Graph{N: g.N()}
	for _, e := range g.Edges() {
		out.Edges = append(out.Edges, [2]int{e.U, e.V})
	}
	return out
}
