package psample

// chromaticlocal_test.go validates the ChromaticGlauber message-passing
// harness: round accounting (R sweeps over a χ-class schedule cost χ·R+1
// LOCAL rounds), pinning, determinism under a fixed seed, and agreement
// with the brute-force referee.

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/model"
)

func TestChromaticLOCALRoundAccounting(t *testing.T) {
	g := graph.Cycle(8)
	r := hardcoreRules(t, g, 1.0, nil)
	chi := len(r.ClassSchedule())
	if chi < 2 {
		t.Fatalf("cycle schedule has %d classes, expected ≥ 2", chi)
	}
	for _, R := range []int{1, 5, 12} {
		cfg, rounds, err := ChromaticGlauberLOCAL(net(g), r, R, 42)
		if err != nil {
			t.Fatalf("R=%d: %v", R, err)
		}
		if rounds != chi*R+1 {
			t.Errorf("R=%d consumed %d LOCAL rounds, want χ·R+1 = %d", R, rounds, chi*R+1)
		}
		if w, err := r.Instance().Spec.Weight(cfg); err != nil || w <= 0 {
			t.Errorf("R=%d: infeasible output %v", R, cfg)
		}
	}
	if cfg, rounds, err := ChromaticGlauberLOCAL(net(g), r, 0, 42); err != nil || rounds != 0 {
		t.Fatalf("R=0: cfg=%v rounds=%d err=%v", cfg, rounds, err)
	}
}

func TestChromaticLOCALRespectsPinning(t *testing.T) {
	g := graph.Path(6)
	pin := dist.Config{model.In, dist.Unset, dist.Unset, dist.Unset, dist.Unset, model.Out}
	r := hardcoreRules(t, g, 1.0, pin)
	cfg, _, err := ChromaticGlauberLOCAL(net(g), r, 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	if cfg[0] != model.In || cfg[5] != model.Out {
		t.Errorf("pinning violated: %v", cfg)
	}
}

// TestChromaticLOCALDeterministic: the harness is a pure function of
// (rules, R, seed) — the determinism contract the adaptive driver's
// property test leans on.
func TestChromaticLOCALDeterministic(t *testing.T) {
	g := graph.Cycle(7)
	r := hardcoreRules(t, g, 1.3, nil)
	a, ra, err := ChromaticGlauberLOCAL(net(g), r, 15, 77)
	if err != nil {
		t.Fatal(err)
	}
	b, rb, err := ChromaticGlauberLOCAL(net(g), r, 15, 77)
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Fatalf("round counts differ: %d vs %d", ra, rb)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("same seed, different configurations: %v vs %v", a, b)
		}
	}
}

// TestChromaticLOCALMatchesExact pins the harness's output distribution to
// the brute-force referee (hardcore on a 5-cycle), like the other two
// LOCAL harnesses.
func TestChromaticLOCALMatchesExact(t *testing.T) {
	g := graph.Cycle(5)
	r := hardcoreRules(t, g, 1.2, nil)
	truth, err := exact.JointDistribution(r.Instance())
	if err != nil {
		t.Fatal(err)
	}
	const trials = 2500
	emp := dist.NewEmpirical(g.N())
	for i := 0; i < trials; i++ {
		cfg, _, err := ChromaticGlauberLOCAL(net(g), r, 25, int64(9000+i))
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
}

func TestChromaticLOCALWrongNetwork(t *testing.T) {
	r := hardcoreRules(t, graph.Cycle(6), 1.0, nil)
	for _, wrong := range []*graph.Graph{graph.Cycle(5), graph.Path(6)} {
		if _, _, err := ChromaticGlauberLOCAL(local.NewNetwork(wrong), r, 3, 1); err == nil {
			t.Errorf("mismatched network %v accepted", wrong)
		}
	}
}
