package psample

// network_test.go validates the message-passing harnesses: round
// accounting in the LOCAL model (R dynamics rounds cost exactly R+1
// simulator rounds), locality (every message crosses a graph edge — the
// simulator rejects anything else), and that the harnesses sample the same
// distribution as the brute-force referee.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/model"
)

func hardcoreRules(t *testing.T, g *graph.Graph, lambda float64, pinned dist.Config) *Rules {
	t.Helper()
	spec, err := model.Hardcore(g, lambda)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, pinned)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RulesOf(in)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLOCALRoundAccounting(t *testing.T) {
	g := graph.Cycle(8)
	r := hardcoreRules(t, g, 1.0, nil)
	net := local.NewNetwork(g)
	for _, R := range []int{1, 5, 12} {
		cfg, rounds, err := LubyGlauberLOCAL(net, r, R, 42)
		if err != nil {
			t.Fatalf("LubyGlauber R=%d: %v", R, err)
		}
		if rounds != R+1 {
			t.Errorf("LubyGlauber R=%d consumed %d LOCAL rounds, want %d", R, rounds, R+1)
		}
		if w, err := r.in.Spec.Weight(cfg); err != nil || w <= 0 {
			t.Errorf("LubyGlauber R=%d: infeasible output %v", R, cfg)
		}
		cfg, rounds, err = localMetropolisLOCAL(net, r, R, 42)
		if err != nil {
			t.Fatalf("LocalMetropolis R=%d: %v", R, err)
		}
		if rounds != R+1 {
			t.Errorf("LocalMetropolis R=%d consumed %d LOCAL rounds, want %d", R, rounds, R+1)
		}
		if w, err := r.in.Spec.Weight(cfg); err != nil || w <= 0 {
			t.Errorf("LocalMetropolis R=%d: infeasible output %v", R, cfg)
		}
	}
	// R = 0 returns the deterministic start without any simulator rounds.
	cfg, rounds, err := LubyGlauberLOCAL(net, r, 0, 42)
	if err != nil || rounds != 0 {
		t.Fatalf("R=0: cfg=%v rounds=%d err=%v", cfg, rounds, err)
	}
}

func TestLOCALRespectsPinning(t *testing.T) {
	g := graph.Path(6)
	pin := dist.Config{model.In, dist.Unset, dist.Unset, dist.Unset, dist.Unset, model.Out}
	r := hardcoreRules(t, g, 1.0, pin)
	net := local.NewNetwork(g)
	for name, run := range map[string]func() (dist.Config, int, error){
		"luby":       func() (dist.Config, int, error) { return LubyGlauberLOCAL(net, r, 20, 9) },
		"metropolis": func() (dist.Config, int, error) { return localMetropolisLOCAL(net, r, 20, 9) },
	} {
		cfg, _, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg[0] != model.In || cfg[5] != model.Out {
			t.Errorf("%s: pinning violated: %v", name, cfg)
		}
	}
}

// TestLOCALMatchesExact pins the message-passing harnesses' output
// distribution to the brute-force referee (hardcore on a 5-cycle): the
// LOCAL implementations must sample the same law as the in-process engines.
func TestLOCALMatchesExact(t *testing.T) {
	g := graph.Cycle(5)
	r := hardcoreRules(t, g, 1.2, nil)
	truth, err := exact.JointDistribution(r.in)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 2500
	for name, run := range map[string]func(seed int64) (dist.Config, int, error){
		"luby":       func(seed int64) (dist.Config, int, error) { return LubyGlauberLOCAL(net(g), r, 25, seed) },
		"metropolis": func(seed int64) (dist.Config, int, error) { return localMetropolisLOCAL(net(g), r, 40, seed) },
	} {
		t.Run(name, func(t *testing.T) {
			emp := dist.NewEmpirical(g.N())
			for i := 0; i < trials; i++ {
				cfg, _, err := run(int64(5000 + i))
				if err != nil {
					t.Fatal(err)
				}
				emp.Observe(cfg)
			}
			got, err := emp.Joint()
			if err != nil {
				t.Fatal(err)
			}
			tv, err := dist.TVJoint(truth, got)
			if err != nil {
				t.Fatal(err)
			}
			tol := 2.5 * dist.ExpectedTVNoise(truth.Len(), trials)
			if tv > tol {
				t.Errorf("TV vs exact = %v > envelope %v", tv, tol)
			}
		})
	}
}

func net(g *graph.Graph) *local.Network { return local.NewNetwork(g) }

// TestBeats pins the Luby phase rule of the LubyGlauber harness: strictly
// larger draw wins, ties break toward the larger ID, and the relation is a
// strict total order (exactly one side beats the other).
func TestBeats(t *testing.T) {
	if !beats(0.7, 1, 0.3, 2) {
		t.Error("larger draw must win")
	}
	if beats(0.3, 9, 0.7, 0) {
		t.Error("smaller draw must lose regardless of ID")
	}
	if !beats(0.5, 3, 0.5, 1) || beats(0.5, 1, 0.5, 3) {
		t.Error("exact ties must break toward the larger ID")
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		d1, d2 := rng.Float64(), rng.Float64()
		if beats(d1, 1, d2, 2) == beats(d2, 2, d1, 1) {
			t.Fatalf("beats is not a strict total order at (%v, %v)", d1, d2)
		}
	}
}

// TestLOCALWrongNetwork checks the network/instance validation: a network
// of another size, and one of the same size with different edges — a
// factor-scope neighbor that never sends its spin — must come back as
// errors from every harness, never reach the kernels.
func TestLOCALWrongNetwork(t *testing.T) {
	r := hardcoreRules(t, graph.Cycle(6), 1.0, nil)
	for _, wrong := range []*graph.Graph{graph.Cycle(5), graph.Path(6)} {
		wnet := local.NewNetwork(wrong)
		if _, _, err := LubyGlauberLOCAL(wnet, r, 3, 1); err == nil {
			t.Errorf("network %v accepted by LubyGlauber", wrong)
		}
		if _, _, err := localMetropolisLOCAL(wnet, r, 3, 1); err == nil {
			t.Errorf("network %v accepted by LocalMetropolis", wrong)
		}
		if _, _, err := ChromaticGlauberLOCAL(wnet, r, 3, 1); err == nil {
			t.Errorf("network %v accepted by ChromaticGlauber", wrong)
		}
	}
}

// localGolden holds the final configurations of the three LOCAL harnesses
// on localGoldenModels, one digit per vertex, keyed harness/model/seed.
// They were recorded from the harnesses' former single-site updates
// (beats plus a lattice heat-bath step and a lattice filter
// walk), which the fused one-chain kernels reproduce bit for bit with the
// cond cache on and off.
var localGolden = map[string]string{
	"luby/hardcore/1":       "0010000000000100",
	"luby/hardcore/2":       "0000000110000010",
	"luby/hardcore/3":       "1010000001000000",
	"luby/ising/1":          "01000011",
	"luby/ising/2":          "11011001",
	"luby/ising/3":          "10101100",
	"luby/coloring/1":       "012101310",
	"luby/coloring/2":       "143231324",
	"luby/coloring/3":       "230401014",
	"chromatic/hardcore/1":  "0000000010000100",
	"chromatic/hardcore/2":  "0001001010000010",
	"chromatic/hardcore/3":  "0010010100101000",
	"chromatic/ising/1":     "01001001",
	"chromatic/ising/2":     "10011010",
	"chromatic/ising/3":     "01100111",
	"chromatic/coloring/1":  "213040204",
	"chromatic/coloring/2":  "401340213",
	"chromatic/coloring/3":  "314132340",
	"metropolis/hardcore/1": "0001000000000000",
	"metropolis/hardcore/2": "1000001000000000",
	"metropolis/hardcore/3": "0000010000000101",
	"metropolis/ising/1":    "10110101",
	"metropolis/ising/2":    "01001010",
	"metropolis/ising/3":    "01010101",
	"metropolis/coloring/1": "413130413",
	"metropolis/coloring/2": "310203014",
	"metropolis/coloring/3": "214103020",
}

// localGoldenModels are the golden instances: hardcore and Ising at q = 2
// (the register paths) and a 5-coloring (the generic q path).
var localGoldenModels = []struct {
	name string
	spec func() (*gibbs.Spec, error)
}{
	{"hardcore", func() (*gibbs.Spec, error) { return model.Hardcore(graph.Torus(4, 4), 1.0) }},
	{"ising", func() (*gibbs.Spec, error) { return model.Ising(graph.Cycle(8), 0.5, 0.8) }},
	{"coloring", func() (*gibbs.Spec, error) { return model.Coloring(graph.Grid(3, 3), 5) }},
}

// TestLOCALGolden pins every LOCAL harness output on localGoldenModels at
// seeds 1–3 to the recorded configurations, with the cond cache on and
// off: a one-chain kernel path that changes a weight, a draw or the RNG
// consumption order fails it.
func TestLOCALGolden(t *testing.T) {
	harnesses := []struct {
		name string
		R    int
		run  func(*local.Network, *Rules, int, int64) (dist.Config, int, error)
	}{
		{"luby", 12, LubyGlauberLOCAL},
		{"chromatic", 4, ChromaticGlauberLOCAL},
		{"metropolis", 12, localMetropolisLOCAL},
	}
	for _, cache := range []bool{true, false} {
		for _, h := range harnesses {
			for _, m := range localGoldenModels {
				for seed := int64(1); seed <= 3; seed++ {
					key := fmt.Sprintf("%s/%s/%d", h.name, m.name, seed)
					spec, err := m.spec()
					if err != nil {
						t.Fatal(err)
					}
					if !cache {
						// Build the cache under a zero entry cap: every
						// draw walks the sweep plan.
						restore := gibbs.SetCondCapForTest(0, 0)
						spec.Compiled().Cond()
						restore()
					}
					in, err := gibbs.NewInstance(spec, nil)
					if err != nil {
						t.Fatal(err)
					}
					r, err := RulesOf(in)
					if err != nil {
						t.Fatal(err)
					}
					cfg, _, err := h.run(local.NewNetwork(spec.G), r, h.R, seed)
					if err != nil {
						t.Fatalf("%s cache=%v: %v", key, cache, err)
					}
					if got := digits(cfg); got != localGolden[key] {
						t.Errorf("%s cache=%v: %s, want %s", key, cache, got, localGolden[key])
					}
				}
			}
		}
	}
}
