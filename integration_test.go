// Integration tests exercising complete pipelines across packages: the
// full Theorem 4.2 stack (decay oracle → boosting → JVV → network
// decomposition scheduling), cross-model agreement between all inference
// paths, fault injection, and the Glauber-dynamics baseline comparison.
package repro_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/decay"
	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/glauber"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/model"
	"repro/internal/netdecomp"
	"repro/internal/slocal"
)

func hardcoreSetup(t testing.TB, g *graph.Graph, lambda float64) (*gibbs.Instance, *core.DecayOracle) {
	t.Helper()
	spec, err := model.Hardcore(g, lambda)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	est, err := decay.NewHardcoreSAW(g, lambda)
	if err != nil {
		t.Fatal(err)
	}
	rate := model.HardcoreDecayRate(lambda, g.MaxDegree())
	return in, &core.DecayOracle{Est: est, Rate: rate, N: g.N()}
}

// TestFourInferencePathsAgree checks that every inference path in the
// repository — brute force, SAW decay, SSM shell-pinning, and boosting —
// lands on the same marginal within its promised accuracy.
func TestFourInferencePathsAgree(t *testing.T) {
	g := graph.Cycle(10)
	lambda := 1.1
	in, o := hardcoreSetup(t, g, lambda)
	pin := dist.NewConfig(g.N())
	pin[5] = model.In
	in = in.PinAll(pin)

	truth, err := exact.Marginal(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Path 2: SAW decay oracle.
	saw, _, err := o.Marginal(in, 0, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Path 3: SSM shell-pinned ball enumeration.
	ssm, _, err := core.SSMInference(in, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Path 4: boosting.
	boost, err := core.Boost(in, o, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]dist.Dist{"saw": saw, "ssm": ssm, "boost": boost.Marginal} {
		tv, err := dist.TV(got, truth)
		if err != nil {
			t.Fatal(err)
		}
		if tv > 0.05 {
			t.Errorf("%s path off by %v (got %v, want %v)", name, tv, got, truth)
		}
	}
}

// TestFullTheorem42Stack runs the complete composition the paper builds:
// additive decay oracle → boosting lemma → multiplicative oracle → local
// JVV → Lemma 3.1 scheduling through a real network decomposition; the
// scheduled order must be a valid permutation, failures certified, and the
// output exactly distributed (statistically).
func TestFullTheorem42Stack(t *testing.T) {
	g := graph.Cycle(6)
	lambda := 1.0
	in, add := hardcoreSetup(t, g, lambda)
	mult := &core.BoostOracle{Additive: add}

	truth, err := exact.JointDistribution(in)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(201))
	emp := dist.NewEmpirical(g.N())
	const trials = 4000
	for i := 0; i < trials; i++ {
		res, rounds, err := core.JVVLOCAL(in, mult, core.JVVConfig{Eps: 0.01, FullRatio: true}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if rounds <= 0 {
			t.Fatal("no rounds charged")
		}
		if !res.Accepted() {
			continue
		}
		emp.Observe(res.Config)
	}
	got, err := emp.Joint()
	if err != nil {
		t.Fatal(err)
	}
	tv, err := dist.TVJoint(truth, got)
	if err != nil {
		t.Fatal(err)
	}
	if noise := dist.ExpectedTVNoise(truth.Len(), emp.Total()); tv > noise {
		t.Errorf("stacked JVV TV = %v exceeds noise %v", tv, noise)
	}
}

// TestNoisyOracleIsDetectedByAcceptance injects oracle bias and checks the
// JVV acceptance machinery notices: acceptance probabilities drop below
// the clean-oracle profile (the rejection step is exactly what protects
// exactness).
func TestNoisyOracleIsDetectedByAcceptance(t *testing.T) {
	g := graph.Cycle(8)
	in, clean := hardcoreSetup(t, g, 1.0)
	noisy := &noisyMult{inner: clean, noise: 0.25}
	rng := rand.New(rand.NewSource(202))
	minClean, minNoisy := 1.0, 1.0
	infeasibleDetections := 0
	for i := 0; i < 200; i++ {
		rc, err := core.LocalJVV(in, clean, core.JVVConfig{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range rc.AcceptProbs {
			if q < minClean {
				minClean = q
			}
		}
		rn, err := core.LocalJVV(in, noisy, core.JVVConfig{}, rng)
		if err != nil {
			// An out-of-spec oracle can hand pass 2 a candidate outside the
			// support; the bridge machinery detects and reports it rather
			// than silently emitting a biased sample.
			infeasibleDetections++
			continue
		}
		for _, q := range rn.AcceptProbs {
			if q < minNoisy {
				minNoisy = q
			}
		}
	}
	if minNoisy >= minClean && infeasibleDetections == 0 {
		t.Errorf("noise not reflected anywhere: clean min %v, noisy min %v, detections %d",
			minClean, minNoisy, infeasibleDetections)
	}
	// The clean oracle's acceptance stays in the Claim 4.7 band.
	n := float64(g.N())
	if minClean < math.Exp(-5/(n*n))-1e-6 {
		t.Errorf("clean acceptance %v below Claim 4.7 bound", minClean)
	}
}

// noisyMult injects multiplicative-error violations into a MultOracle.
type noisyMult struct {
	inner core.MultOracle
	noise float64
}

func (o *noisyMult) MarginalMult(in *gibbs.Instance, v int, eps float64) (dist.Dist, int, error) {
	d, r, err := o.inner.MarginalMult(in, v, eps)
	if err != nil {
		return nil, 0, err
	}
	mixed, err := dist.Mix(d, dist.Uniform(len(d)), o.noise)
	if err != nil {
		return nil, 0, err
	}
	return mixed, r, nil
}

// TestStarvedDecompositionCertifiesFailures runs the Theorem 3.2 pipeline
// with a deliberately starved decomposition and checks that the failures
// are certified, never silent.
func TestStarvedDecompositionCertifiesFailures(t *testing.T) {
	g := graph.Path(120)
	rng := rand.New(rand.NewSource(203))
	dec, err := netdecomp.BallCarving(g, netdecomp.Params{ColorBudget: 1, RadiusBudget: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if dec.FailureCount() == 0 {
		t.Skip("lucky run: no starvation this seed")
	}
	if err := dec.Validate(g, 0); err != nil {
		t.Fatalf("starved decomposition structurally invalid: %v", err)
	}
	order := dec.ScheduleOrder()
	if err := slocal.CheckOrder(g.N(), order); err != nil {
		t.Fatalf("starved schedule not a permutation: %v", err)
	}
}

// TestGlauberBaselineAgreesWithJVV compares the two samplers the repo
// provides — Glauber dynamics (classical MCMC baseline) and local-JVV
// (the paper's exact sampler) — on the same instance: both must converge
// to the same distribution, with JVV exact by construction.
func TestGlauberBaselineAgreesWithJVV(t *testing.T) {
	g := graph.Cycle(6)
	in, o := hardcoreSetup(t, g, 1.3)
	rng := rand.New(rand.NewSource(204))
	const trials = 5000
	jvvEmp := dist.NewEmpirical(g.N())
	glauberEmp := dist.NewEmpirical(g.N())
	for i := 0; i < trials; i++ {
		res, err := core.LocalJVV(in, o, core.JVVConfig{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted() {
			jvvEmp.Observe(res.Config)
		}
		cfg, err := glauber.Sample(in, 25, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		glauberEmp.Observe(cfg)
	}
	a, err := jvvEmp.Joint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := glauberEmp.Joint()
	if err != nil {
		t.Fatal(err)
	}
	tv, err := dist.TVJoint(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.06 {
		t.Errorf("JVV and Glauber disagree: TV = %v", tv)
	}
}

// TestGatherThenInferLOCAL runs inference through the real message-passing
// engine: nodes gather their radius-t balls by flooding, then each computes
// its SAW marginal from the gathered view only — verifying that the decay
// oracle truly is t-local (it needs nothing outside the gathered ball).
func TestGatherThenInferLOCAL(t *testing.T) {
	g := graph.Cycle(16)
	lambda := 0.9
	in, o := hardcoreSetup(t, g, lambda)
	delta := 0.02
	_, radius, err := o.Marginal(in, 0, delta)
	if err != nil {
		t.Fatal(err)
	}
	net := local.NewNetwork(g)
	views, rounds, err := net.Gather(radius, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != radius {
		t.Fatalf("gather rounds %d != radius %d", rounds, radius)
	}
	for v := 0; v < g.N(); v++ {
		// Rebuild the local subgraph from the gathered view and run the
		// estimator on it.
		sub := graph.New(g.N())
		for _, e := range views[v].Edges {
			if err := sub.AddEdge(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
		localEst, err := decay.NewHardcoreSAW(sub, lambda)
		if err != nil {
			t.Fatal(err)
		}
		gotLocal, err := localEst.Marginal(dist.NewConfig(g.N()), v, radius)
		if err != nil {
			t.Fatal(err)
		}
		gotGlobal, _, err := o.Marginal(in, v, delta)
		if err != nil {
			t.Fatal(err)
		}
		tv, err := dist.TV(gotLocal, gotGlobal)
		if err != nil {
			t.Fatal(err)
		}
		if tv > 1e-12 {
			t.Fatalf("node %d: ball-view inference differs from global (%v vs %v) — oracle is not %d-local", v, gotLocal, gotGlobal, radius)
		}
	}
}

// TestConstructionVsSamplingRounds contrasts the two tasks end to end:
// Luby MIS constructs a feasible configuration and the JVV pipeline samples
// one; both run in polylog rounds, but only the sampler matches the Gibbs
// measure (checked in internal/construct; here we check both terminate with
// valid outputs on the same graph).
func TestConstructionVsSamplingRounds(t *testing.T) {
	g := graph.Cycle(20)
	net := local.NewNetwork(g)
	mis, err := construct.LubyMIS(net, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := construct.Verify(g, mis); err != nil {
		t.Fatal(err)
	}
	in, o := hardcoreSetup(t, g, 1.0)
	rng := rand.New(rand.NewSource(205))
	res, rounds, err := core.JVVLOCAL(in, o, core.JVVConfig{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if w, err := in.Spec.Weight(res.Config); err != nil || w <= 0 {
		t.Fatalf("sampler output infeasible: %v %v", w, err)
	}
	if mis.Rounds <= 0 || rounds <= 0 {
		t.Fatalf("degenerate round counts: MIS %d, JVV %d", mis.Rounds, rounds)
	}
}
