package glauber

import (
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
)

func hardcoreInstance(t *testing.T, g *graph.Graph, lambda float64, pinned dist.Config) *gibbs.Instance {
	t.Helper()
	s, err := model.Hardcore(g, lambda)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(s, pinned)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestChainStaysFeasible(t *testing.T) {
	g := graph.Cycle(8)
	in := hardcoreInstance(t, g, 1.5, nil)
	c, err := New(in, 101)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		w, err := in.Spec.Weight(c.State())
		if err != nil || w <= 0 {
			t.Fatalf("step %d: infeasible state %v (w=%v err=%v)", i, c.State(), w, err)
		}
	}
	if c.Rounds() != 500 {
		t.Errorf("rounds = %d", c.Rounds())
	}
}

func TestChainRespectsPinning(t *testing.T) {
	g := graph.Path(5)
	pin := dist.Config{1, dist.Unset, dist.Unset, dist.Unset, 0}
	in := hardcoreInstance(t, g, 1, pin)
	c, err := New(in, 102)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(300); err != nil {
		t.Fatal(err)
	}
	s := c.State()
	if s[0] != 1 || s[4] != 0 {
		t.Errorf("pinning violated: %v", s)
	}
}

func TestStationaryDistribution(t *testing.T) {
	// On a rapidly mixing instance, long runs should match the Gibbs
	// distribution.
	g := graph.Cycle(5)
	in := hardcoreInstance(t, g, 1.2, nil)
	truth, err := exact.JointDistribution(in)
	if err != nil {
		t.Fatal(err)
	}
	emp := dist.NewEmpirical(5)
	const trials = 6000
	for i := 0; i < trials; i++ {
		cfg, err := Sample(in, 20, int64(103000+i))
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
	if tv > 0.05 {
		t.Errorf("Glauber stationary TV = %v", tv)
	}
}

func TestNoFeasibleStart(t *testing.T) {
	// 1-coloring of an edge cannot start.
	g := graph.Path(2)
	s, err := model.Coloring(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(in, 1); err == nil {
		t.Error("infeasible model started")
	}
}

func TestFullyPinnedChain(t *testing.T) {
	g := graph.Path(2)
	in := hardcoreInstance(t, g, 1, dist.Config{0, 1})
	c, err := New(in, 105)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if s := c.State(); s[0] != 0 || s[1] != 1 {
		t.Errorf("fully pinned chain moved: %v", s)
	}
}

func TestColoringChain(t *testing.T) {
	// Glauber on proper colorings with q ≥ Δ+2 is ergodic; check
	// stationarity on a small instance.
	s, err := model.Coloring(graph.Cycle(4), 4)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := exact.JointDistribution(in)
	if err != nil {
		t.Fatal(err)
	}
	emp := dist.NewEmpirical(4)
	for i := 0; i < 6000; i++ {
		cfg, err := Sample(in, 15, int64(106000+i))
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
	if tv > 0.06 {
		t.Errorf("coloring Glauber TV = %v", tv)
	}
}

// TestChainMatchesReferee replays the chain's stream through the
// dist.Config referee — the same IntN vertex pick, then dist.SampleWeights
// on CondWeights — and requires the chain to agree symbol for symbol, with
// the cond cache on and off; Reset with the same seed must replay the
// trajectory.
func TestChainMatchesReferee(t *testing.T) {
	pin := dist.NewConfig(16)
	pin[5] = 1
	for _, c := range []struct {
		name string
		spec func() (*gibbs.Spec, error)
		pin  dist.Config
	}{
		{"hardcore-pinned", func() (*gibbs.Spec, error) { return model.Hardcore(graph.Torus(4, 4), 1.3) }, pin},
		{"coloring", func() (*gibbs.Spec, error) { return model.Coloring(graph.Grid(3, 3), 5) }, nil},
	} {
		for _, cache := range []bool{true, false} {
			spec, err := c.spec()
			if err != nil {
				t.Fatal(err)
			}
			in, err := gibbs.NewInstance(spec, c.pin)
			if err != nil {
				t.Fatal(err)
			}
			eng := in.Spec.Compiled()
			if !cache {
				// A cache built under a zero entry cap covers nothing:
				// every update walks the sweep plan.
				restore := gibbs.SetCondCapForTest(0, 0)
				eng.Cond()
				restore()
			}
			const seed, steps = 77, 600
			chain, err := New(in, seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := eng.GreedyCompletion(in.Pinned)
			if err != nil {
				t.Fatal(err)
			}
			free := in.FreeVertices()
			rng := dist.NewXoshiro(seed, 0)
			buf := make([]float64, in.Q())
			for i := 0; i < steps; i++ {
				v := free[rng.IntN(len(free))]
				w, err := eng.CondWeights(cfg, v, buf)
				if err != nil {
					t.Fatal(err)
				}
				if cfg[v], err = dist.SampleWeights(w, &rng); err != nil {
					t.Fatal(err)
				}
				if err := chain.Step(); err != nil {
					t.Fatal(err)
				}
				if got := chain.State(); got[v] != cfg[v] {
					t.Fatalf("%s cache=%v step %d: vertex %d = %d, referee %d", c.name, cache, i, v, got[v], cfg[v])
				}
			}
			final := chain.State()
			if err := chain.Reset(seed); err != nil {
				t.Fatal(err)
			}
			if err := chain.Run(steps); err != nil {
				t.Fatal(err)
			}
			if got := chain.State(); !slices.Equal(got, final) || chain.Rounds() != steps {
				t.Fatalf("%s cache=%v: Reset replay ended at %v after %d rounds, first run %v", c.name, cache, got, chain.Rounds(), final)
			}
		}
	}
}
