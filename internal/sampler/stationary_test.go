package sampler

// stationary_test.go pins ChromaticGlauber (the Batch engine at B = 1)
// exactly, the same way internal/psample pins LubyGlauber and
// LocalMetropolis: on instances small enough to enumerate, the one-round
// (one full sweep) transition kernel P is built by brute force — the
// sweep is the composition of the color-class stage kernels, and each
// stage kernel is the product of the class's heat-bath conditionals — and
// µP = µ is checked against the exact Gibbs distribution µ from
// internal/exact to 1e-9 in TV.

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/psample"
)

// tinyInstances mirrors the psample stationarity suite: soft and hard
// constraints, pairwise and arity-3 factors, and pinning.
func tinyInstances(t *testing.T) map[string]*gibbs.Instance {
	t.Helper()
	out := make(map[string]*gibbs.Instance)
	mk := func(name string, spec *gibbs.Spec, err error, pinned dist.Config) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		in, err := gibbs.NewInstance(spec, pinned)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = in
	}

	hc, err := model.Hardcore(graph.Path(3), 1.3)
	mk("hardcore-path3", hc, err, nil)

	hcPin, err := model.Hardcore(graph.Path(3), 0.8)
	mk("hardcore-pinned", hcPin, err, dist.Config{model.Out, dist.Unset, dist.Unset})

	is, err := model.Ising(graph.Cycle(3), 0.6, 1.4)
	mk("ising-triangle", is, err, nil)

	m, err := model.Matching(graph.Star(3), 1.1)
	if err != nil {
		t.Fatal(err)
	}
	mk("matching-star3", m.Spec, nil, nil)

	col, err := model.Coloring(graph.Cycle(4), 3)
	mk("coloring-cycle4", col, err, nil)

	// A genuine arity-3 factor: a soft not-all-equal constraint on a
	// triangle plus a mild field.
	tri := graph.Complete(3)
	table := make([]float64, 8)
	for idx := range table {
		a, b, c := idx>>2&1, idx>>1&1, idx&1
		if a == b && b == c {
			table[idx] = 0.3
		} else {
			table[idx] = 1.0
		}
	}
	factors := []gibbs.Factor{
		{Scope: []int{0, 1, 2}, Table: table, Name: "nae"},
		gibbs.UnaryTable(0, []float64{1, 1.7}, "field"),
	}
	spec, err := gibbs.NewSpec(tri, 2, factors)
	mk("triangle-arity3", spec, err, nil)

	return out
}

// applyClassKernel returns µ·P_k where P_k simultaneously heat-bath
// updates every vertex of the class. The class is an independent set and
// factor scopes are cliques, so each vertex's conditional depends only on
// vertices outside the class and the joint update factorizes into a
// product of single-vertex conditionals — exactly what the engine's stage
// executes.
func applyClassKernel(t *testing.T, eng *gibbs.Compiled, q int, class []int, mu *dist.Joint) *dist.Joint {
	t.Helper()
	out := dist.NewJoint(mu.N())
	buf := make([]float64, q)
	for _, sigma := range mu.Support() {
		p := mu.Prob(sigma)
		if p == 0 {
			continue
		}
		tau := sigma.Clone()
		var rec func(i int, pu float64)
		rec = func(i int, pu float64) {
			if pu == 0 {
				return
			}
			if i == len(class) {
				out.Add(tau.Clone(), pu)
				return
			}
			v := class[i]
			w, err := eng.CondWeights(sigma, v, buf)
			if err != nil {
				t.Fatal(err)
			}
			d, err := dist.FromWeights(w)
			if err != nil {
				t.Fatal(err)
			}
			for x := 0; x < q; x++ {
				tau[v] = x
				rec(i+1, pu*d[x])
			}
			tau[v] = sigma[v]
		}
		rec(0, p)
	}
	if err := out.Normalize(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestChromaticGlauberStationaryExact checks TV(µP, µ) < 1e-9 where P is
// one full ChromaticGlauber sweep (the engine's schedule, stage by stage),
// and also that every intermediate stage kernel preserves µ.
func TestChromaticGlauberStationaryExact(t *testing.T) {
	for name, in := range tinyInstances(t) {
		t.Run(name, func(t *testing.T) {
			r, err := psample.RulesOf(in)
			if err != nil {
				t.Fatal(err)
			}
			s, err := psample.NewBatchChromaticGlauber(r, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := exact.JointDistribution(in)
			if err != nil {
				t.Fatal(err)
			}
			eng := r.Engine()
			mu := truth
			for k, class := range s.Classes() {
				mu = applyClassKernel(t, eng, in.Q(), class, mu)
				tv, err := dist.TVJoint(truth, mu)
				if err != nil {
					t.Fatal(err)
				}
				if tv > 1e-9 || math.IsNaN(tv) {
					t.Errorf("stage %d (class %v) moves the stationary distribution: TV = %g", k, class, tv)
				}
			}
		})
	}
}

// TestChromaticScheduleCoversFreeVertices checks the schedule invariants
// the stationarity argument rests on: every free vertex appears in exactly
// one class, no pinned vertex appears, and every class is an independent
// set of the interaction graph.
func TestChromaticScheduleCoversFreeVertices(t *testing.T) {
	for name, in := range tinyInstances(t) {
		t.Run(name, func(t *testing.T) {
			r, err := psample.RulesOf(in)
			if err != nil {
				t.Fatal(err)
			}
			s, err := psample.NewBatchChromaticGlauber(r, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			g := in.Spec.G
			seen := make(map[int]int)
			for _, class := range s.Classes() {
				for i, v := range class {
					seen[v]++
					if !r.Free(v) {
						t.Errorf("pinned vertex %d scheduled", v)
					}
					for _, u := range class[i+1:] {
						if g.HasEdge(v, u) {
							t.Errorf("class %v is not independent: edge (%d,%d)", class, v, u)
						}
					}
				}
			}
			for _, v := range in.FreeVertices() {
				if seen[v] != 1 {
					t.Errorf("free vertex %d scheduled %d times", v, seen[v])
				}
			}
		})
	}
}
