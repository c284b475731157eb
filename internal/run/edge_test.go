package run

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
)

// edgeInstance is a degenerate instance the driver must run without
// panicking or failing, together with the counts the test checks the built
// instance against.
type edgeInstance struct {
	Name       string
	TotalNodes int
	TotalEdges int
	FreeNodes  int
	Q          int
	// Graph builds the interaction graph, Model the distribution on it.
	Graph func() *graph.Graph
	Model func(g *graph.Graph) (*gibbs.Spec, error)
	// Pinned is the pinning, nil for none.
	Pinned dist.Config
}

func hardcore1(g *graph.Graph) (*gibbs.Spec, error) { return model.Hardcore(g, 1) }

// twoTriangles is a graph with two components, vertices 0–2 and 3–5.
func twoTriangles() *graph.Graph {
	g := graph.New(6)
	for _, c := range [][3]int{{0, 1, 2}, {3, 4, 5}} {
		g.MustAddEdge(c[0], c[1])
		g.MustAddEdge(c[1], c[2])
		g.MustAddEdge(c[0], c[2])
	}
	return g
}

// edgeInstances lists the instances of the driver's "never panics" list.
var edgeInstances = []edgeInstance{
	{
		Name:       "hardcore-cycle4-all-pinned",
		TotalNodes: 4, TotalEdges: 4, FreeNodes: 0, Q: 2,
		Graph:  func() *graph.Graph { return graph.Cycle(4) },
		Model:  hardcore1,
		Pinned: dist.Config{1, 0, 1, 0},
	},
	{
		Name:       "hardcore-isolated5",
		TotalNodes: 5, TotalEdges: 0, FreeNodes: 5, Q: 2,
		Graph: func() *graph.Graph { return graph.New(5) },
		Model: hardcore1,
	},
	{
		Name:       "hardcore-two-triangles",
		TotalNodes: 6, TotalEdges: 6, FreeNodes: 6, Q: 2,
		Graph: twoTriangles,
		Model: hardcore1,
	},
	{
		Name:       "coloring-q1-isolated4",
		TotalNodes: 4, TotalEdges: 0, FreeNodes: 4, Q: 1,
		Graph: func() *graph.Graph { return graph.New(4) },
		Model: func(g *graph.Graph) (*gibbs.Spec, error) { return model.Coloring(g, 1) },
	},
	{
		Name:       "hardcore-single-vertex",
		TotalNodes: 1, TotalEdges: 0, FreeNodes: 1, Q: 2,
		Graph: func() *graph.Graph { return graph.New(1) },
		Model: hardcore1,
	},
}

// TestDriveEdgeInstances runs every batched dynamic under a convergence
// target, an ESS floor and a budget too short for any check on each edge
// instance. Every run must return a nil error and stop Converged or
// Budget; a run with no check reports NaN statistics and vertex −1, a run
// with checks reports its last one, and the all-pinned instance, whose
// chains cannot move, reports R̂ = 1 and keeps every chain at the pinning.
func TestDriveEdgeInstances(t *testing.T) {
	policies := []struct {
		name string
		p    Policy
	}{
		{"rhat", Policy{Rhat: 1.05}},
		{"min-ess", Policy{MinESS: 10}},
		{"no-check", Policy{MaxSweeps: 2}},
	}
	for _, ei := range edgeInstances {
		g := ei.Graph()
		spec, err := ei.Model(g)
		if err != nil {
			t.Fatalf("%s: %v", ei.Name, err)
		}
		pinned := ei.Pinned
		if pinned == nil {
			pinned = dist.NewConfig(g.N())
		}
		in, err := gibbs.NewInstance(spec, pinned)
		if err != nil {
			t.Fatalf("%s: %v", ei.Name, err)
		}
		if g.N() != ei.TotalNodes || g.M() != ei.TotalEdges || len(in.FreeVertices()) != ei.FreeNodes || spec.Q != ei.Q {
			t.Fatalf("%s: built n=%d m=%d free=%d q=%d, want %d %d %d %d", ei.Name,
				g.N(), g.M(), len(in.FreeVertices()), spec.Q, ei.TotalNodes, ei.TotalEdges, ei.FreeNodes, ei.Q)
		}
		for _, dynamic := range []string{"chromatic", "luby", "metropolis"} {
			for _, pc := range policies {
				t.Run(fmt.Sprintf("%s/%s/%s", ei.Name, dynamic, pc.name), func(t *testing.T) {
					rep, m, err := One(in, dynamic, 1, pc.p)
					if err != nil {
						t.Fatalf("Drive: %v", err)
					}
					if rep.Reason != Converged && rep.Reason != Budget {
						t.Fatalf("Reason = %q, want %q or %q", rep.Reason, Converged, Budget)
					}
					if rep.Converged != (rep.Reason == Converged) {
						t.Errorf("Converged = %v with Reason %q", rep.Converged, rep.Reason)
					}
					checks := rep.Stages[len(rep.Stages)-1].Checks
					if len(checks) == 0 {
						if !math.IsNaN(rep.Rhat) || !math.IsNaN(rep.SplitRhat) || !math.IsNaN(rep.ESS) ||
							rep.WorstVertex != -1 || rep.SplitVertex != -1 || rep.ESSVertex != -1 {
							t.Errorf("no check ran, yet the report holds %+v", rep)
						}
						if pc.p.MaxSweeps == 0 {
							t.Errorf("no check ran within %d sweeps", rep.Sweeps)
						}
					} else {
						last := checks[len(checks)-1]
						if rep.Rhat != last.Rhat || rep.WorstVertex != last.WorstVertex ||
							!sameFloat(rep.SplitRhat, last.SplitRhat) || rep.SplitVertex != last.SplitVertex ||
							!sameFloat(rep.ESS, last.ESS) || rep.ESSVertex != last.ESSVertex {
							t.Errorf("report %+v differs from its last check %+v", rep, last)
						}
					}
					if ei.FreeNodes == 0 {
						if len(checks) > 0 && rep.Rhat != 1 {
							t.Errorf("all-pinned R̂ = %v, want 1", rep.Rhat)
						}
						for c := 0; c < m.Chains(); c++ {
							for v, x := range ei.Pinned {
								if got := m.Lattice().Get(v, c); got != x {
									t.Fatalf("chain %d moved pinned vertex %d to %d", c, v, got)
								}
							}
						}
					}
				})
			}
		}
	}
}

// sameFloat is == that also holds between two NaNs.
func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
