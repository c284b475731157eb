package psample

// psample_test.go validates the engines end to end at B = 1, where every
// row takes the one-chain paths: each engine's single-chain output must
// reproduce the exact Gibbs distribution (TV distance against
// internal/exact within the dist.ExpectedTVNoise envelope) for every
// internal/model builder. It also holds the Rules construction checks.

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
)

// tvCase is one model-builder validation instance: small enough for the
// brute-force referee, parameterized inside the ergodic regime of both
// dynamics (for colorings this means q ≥ Δ+2 so single-site moves are
// never frozen).
type tvCase struct {
	name   string
	in     *gibbs.Instance
	rounds int
	trials int
}

func buildTVCases(t *testing.T) []tvCase {
	t.Helper()
	var cases []tvCase
	add := func(name string, spec *gibbs.Spec, err error, rounds, trials int) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		in, err := gibbs.NewInstance(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tvCase{name: name, in: in, rounds: rounds, trials: trials})
	}

	hc, err := model.Hardcore(graph.Cycle(6), 1.2)
	add("hardcore", hc, err, 40, 6000)

	is, err := model.Ising(graph.Cycle(6), 0.5, 0.8)
	add("ising", is, err, 40, 6000)

	col, err := model.Coloring(graph.Path(3), 4)
	add("coloring", col, err, 40, 6000)

	lc, err := model.ListColoring(graph.Path(3), 4, [][]int{{0, 1, 2}, {1, 2, 3}, {0, 1, 3}})
	add("list-coloring", lc, err, 40, 6000)

	m, err := model.Matching(graph.Path(5), 1.3)
	if err != nil {
		t.Fatal(err)
	}
	add("matching", m.Spec, nil, 40, 6000)

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
	add("hypergraph-matching", hm.Spec, nil, 40, 6000)

	return cases
}

// TestLubyGlauberMatchesExact pins the single-chain LubyGlauber sampler —
// the engine at B = 1, whose every row takes the one-chain phase compare
// and every winner the one-chain draw — to the brute-force referee for
// every model builder.
func TestLubyGlauberMatchesExact(t *testing.T) {
	for _, c := range buildTVCases(t) {
		t.Run(c.name, func(t *testing.T) {
			r, err := NewRules(c.in)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewBatchLubyGlauber(r, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkTVMulti(t, c.in, s, c.rounds, c.trials)
			if s.Updates() == 0 {
				t.Error("no heat-bath updates recorded")
			}
		})
	}
}

// TestLocalMetropolisMatchesExact pins the single-chain LocalMetropolis
// sampler (the engine at B = 1) to the brute-force referee for every
// model builder.
func TestLocalMetropolisMatchesExact(t *testing.T) {
	for _, c := range buildTVCases(t) {
		t.Run(c.name, func(t *testing.T) {
			r, err := NewRules(c.in)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewBatchLocalMetropolis(r, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			// LocalMetropolis pays per-round acceptance losses; give it a
			// longer schedule than LubyGlauber.
			checkTVMulti(t, c.in, s, 2*c.rounds, c.trials)
			if s.Accepts() == 0 {
				t.Error("no accepted proposals recorded")
			}
		})
	}
}

// TestRulesRejectsWideFilterFactor pins the 1<<k overflow fix: a factor
// with ≥ 63 free scope vertices must be rejected by NewRules with a
// descriptive error instead of silently computing a garbage filter scale.
func TestRulesRejectsWideFilterFactor(t *testing.T) {
	const k = 63
	g := graph.Complete(k)
	scope := make([]int, k)
	for i := range scope {
		scope[i] = i
	}
	f := []gibbs.Factor{{
		Scope: scope,
		Eval:  func([]int) float64 { return 1 },
		Name:  "wide",
	}}
	spec, err := gibbs.NewSpec(g, 2, f)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewRules(in)
	if err == nil {
		t.Fatal("63-free-vertex filter factor accepted")
	}
	if !strings.Contains(err.Error(), "overflow") {
		t.Errorf("error %q does not describe the overflow", err)
	}
}

// TestRulesRejectsNonCliqueScope checks the locality precondition both
// harnesses rely on.
func TestRulesRejectsNonCliqueScope(t *testing.T) {
	g := graph.Path(3) // 0-1-2; 0 and 2 are not adjacent
	f := []gibbs.Factor{{Scope: []int{0, 2}, Table: []float64{1, 1, 1, 0.5}, Name: "nonlocal"}}
	spec, err := gibbs.NewSpec(g, 2, f)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRules(in); err == nil {
		t.Fatal("non-clique scope accepted")
	}
}

// TestProposalMatchesConditional sanity-checks the proposal construction:
// for an isolated free vertex the proposal is exactly its conditional
// marginal, so one LocalMetropolis round samples it perfectly.
func TestProposalMatchesConditional(t *testing.T) {
	g := graph.New(1)
	spec, err := model.Hardcore(g, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRules(in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.Marginal(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < r.Q(); x++ {
		if diff := r.proposal[0][x] - want[x]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("proposal %v != marginal %v", r.proposal[0], want)
		}
	}
	rng := dist.NewXoshiro(1, 0)
	if x := r.Propose(0, &rng); x < 0 || x >= r.Q() {
		t.Fatalf("proposal symbol %d out of range", x)
	}
}
