package psample

// network_test.go validates the message-passing harnesses: round
// accounting in the LOCAL model (R dynamics rounds cost exactly R+1
// simulator rounds), locality (every message crosses a graph edge — the
// simulator rejects anything else), and that the harnesses sample the same
// distribution as the brute-force referee.

import (
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
	r, err := NewRules(in)
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
		if w, err := r.Instance().Spec.Weight(cfg); err != nil || w <= 0 {
			t.Errorf("LubyGlauber R=%d: infeasible output %v", R, cfg)
		}
		cfg, rounds, err = LocalMetropolisLOCAL(net, r, R, 42)
		if err != nil {
			t.Fatalf("LocalMetropolis R=%d: %v", R, err)
		}
		if rounds != R+1 {
			t.Errorf("LocalMetropolis R=%d consumed %d LOCAL rounds, want %d", R, rounds, R+1)
		}
		if w, err := r.Instance().Spec.Weight(cfg); err != nil || w <= 0 {
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
		"metropolis": func() (dist.Config, int, error) { return LocalMetropolisLOCAL(net, r, 20, 9) },
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
	truth, err := exact.JointDistribution(r.Instance())
	if err != nil {
		t.Fatal(err)
	}
	const trials = 2500
	for name, run := range map[string]func(seed int64) (dist.Config, int, error){
		"luby":       func(seed int64) (dist.Config, int, error) { return LubyGlauberLOCAL(net(g), r, 25, seed) },
		"metropolis": func(seed int64) (dist.Config, int, error) { return LocalMetropolisLOCAL(net(g), r, 40, seed) },
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

// TestLOCALWrongNetwork checks the network/instance size validation.
func TestLOCALWrongNetwork(t *testing.T) {
	r := hardcoreRules(t, graph.Cycle(6), 1.0, nil)
	wrong := local.NewNetwork(graph.Cycle(5))
	if _, _, err := LubyGlauberLOCAL(wrong, r, 3, 1); err == nil {
		t.Error("mismatched network accepted by LubyGlauber")
	}
	if _, _, err := LocalMetropolisLOCAL(wrong, r, 3, 1); err == nil {
		t.Error("mismatched network accepted by LocalMetropolis")
	}
}
