//go:build !race

package glauber

import (
	"testing"

	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
)

// TestStepZeroAllocs enforces the compiled-engine guarantee that a
// steady-state heat-bath update allocates nothing — the regression gate
// behind BenchmarkGlauberStep's 0 allocs/op. Excluded under the race
// detector, whose instrumentation perturbs allocation accounting.
func TestStepZeroAllocs(t *testing.T) {
	g := graph.Torus(8, 8)
	spec, err := model.Hardcore(g, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := New(in, 5)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(1000, func() {
		if err := chain.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Glauber Step allocates %.2f objects/op, want 0", avg)
	}
}

// TestResetZeroAllocs checks that a warm Reset — the instance's canonical
// start already built — allocates nothing: it broadcasts the start the
// instance caches instead of recomputing the greedy completion.
func TestResetZeroAllocs(t *testing.T) {
	spec, err := model.Ising(graph.Torus(16, 16), 0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := New(in, 5)
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	avg := testing.AllocsPerRun(100, func() {
		seed++
		if err := chain.Reset(seed); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm Reset allocates %.2f objects/op, want 0", avg)
	}
}
