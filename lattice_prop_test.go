package repro_test

// lattice_prop_test.go: the representation-independence property of the
// compact state container. internal/state picks uint8 cells for q ≤ 255
// and falls back to []int above; nothing downstream may depend on which
// one is in play. The test pins that exactly: for every model builder of
// internal/model, every in-process engine (sequential Glauber, LubyGlauber,
// LocalMetropolis, ChromaticGlauber, the multi-chain batch) and the exact
// enumerator produce BIT-IDENTICAL results under a shared seed whether the
// lattice is compact or forced wide — same kernels, same float operation
// order, same RNG consumption, different cell width only.

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/psample"
	"repro/internal/sampler"
	"repro/internal/state"
)

// propInstances builds one instance per model builder (all six), small
// enough for the exact referee.
func propInstances(t *testing.T) map[string]*gibbs.Instance {
	t.Helper()
	out := make(map[string]*gibbs.Instance)
	add := func(name string, spec *gibbs.Spec, err error, pin dist.Config) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		in, err := gibbs.NewInstance(spec, pin)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = in
	}

	hc, err := model.Hardcore(graph.Cycle(8), 1.2)
	add("hardcore", hc, err, nil)

	is, err := model.Ising(graph.Cycle(8), 0.6, 0.9)
	pin := dist.NewConfig(8)
	pin[2] = 1
	add("ising-pinned", is, err, pin)

	col, err := model.Coloring(graph.Grid(2, 3), 4)
	add("coloring", col, err, nil)

	lc, err := model.ListColoring(graph.Path(4), 4, [][]int{{0, 1, 2}, {1, 2, 3}, {0, 1, 3}, {0, 2, 3}})
	add("list-coloring", lc, err, nil)

	m, err := model.Matching(graph.Cycle(6), 1.3)
	if err != nil {
		t.Fatal(err)
	}
	add("matching", m.Spec, nil, nil)

	h := graph.NewHypergraph(6)
	for _, e := range [][]int{{0, 1, 2}, {2, 3, 4}, {3, 4, 5}} {
		if err := h.AddEdge(e...); err != nil {
			t.Fatal(err)
		}
	}
	hm, err := model.HypergraphMatching(h, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	add("hypergraph-matching", hm.Spec, nil, nil)

	return out
}

// runEngines executes every engine on the instance under one seed and
// returns the final chain states, keyed by engine name.
func runEngines(t *testing.T, in *gibbs.Instance, seed int64) map[string]dist.Config {
	t.Helper()
	out := make(map[string]dist.Config)
	for _, name := range sampler.Names() {
		if name == "metropolis" {
			// LocalMetropolis needs table-backed acceptance factors; skip
			// uniformly (representation cannot change MetropolisReady).
			r, err := psample.NewRules(in)
			if err != nil {
				t.Fatal(err)
			}
			if r.MetropolisReady() != nil {
				continue
			}
		}
		s, err := sampler.Create(name, in, sampler.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := sampler.SweepRounds(name, in)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(6 * sweep); err != nil {
			t.Fatal(err)
		}
		out[name] = s.State()
	}
	r, err := psample.NewRules(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := psample.NewBatchChromaticGlauber(r, 5, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(6); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < b.Chains(); c++ {
		out["batch-chain"] = append(out["batch-chain"], b.Chain(c)...)
	}
	return out
}

// TestCompactAndWideLatticesBitIdentical is the property test: compact-cell
// and []int-fallback lattices must produce bit-identical chains for every
// model builder and every engine under a shared seed, and the exact
// enumerator must produce the bit-identical partition function.
func TestCompactAndWideLatticesBitIdentical(t *testing.T) {
	const seed = 20260730
	for name, in := range propInstances(t) {
		t.Run(name, func(t *testing.T) {
			compact := runEngines(t, in, seed)
			zc, err := exact.Partition(in)
			if err != nil {
				t.Fatal(err)
			}
			restore := state.SetCompactLimitForTest(0)
			wide := runEngines(t, in, seed)
			zw, err := exact.Partition(in)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			if zc != zw {
				t.Errorf("Partition: compact %v != wide %v", zc, zw)
			}
			if len(compact) != len(wide) {
				t.Fatalf("engine sets differ: %d vs %d", len(compact), len(wide))
			}
			for eng, cfg := range compact {
				wcfg, ok := wide[eng]
				if !ok {
					t.Errorf("engine %s missing from wide run", eng)
					continue
				}
				if !cfg.Equal(wcfg) {
					t.Errorf("engine %s: compact chain %v != wide chain %v", eng, cfg, wcfg)
				}
			}
		})
	}
}
