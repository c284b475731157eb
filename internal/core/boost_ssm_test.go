package core

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
)

func TestBoostAchievesMultiplicativeError(t *testing.T) {
	// Lemma 4.1: boosting an additive-error oracle yields multiplicative
	// error ε.
	g := graph.Cycle(10)
	lambda := 1.0
	in := hardcoreInstance(t, g, lambda, nil)
	o := sawOracle(t, g, lambda)
	for _, eps := range []float64{0.5, 0.1} {
		res, err := Boost(in, o, 0, eps)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exact.Marginal(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		me, err := dist.MultErr(res.Marginal, want)
		if err != nil {
			t.Fatal(err)
		}
		if me > eps {
			t.Errorf("eps=%v: multiplicative error %v exceeds bound", eps, me)
		}
		if res.Radius <= 0 {
			t.Errorf("radius = %d", res.Radius)
		}
	}
}

func TestBoostPinnedVertex(t *testing.T) {
	g := graph.Path(4)
	pin := dist.Config{1, dist.Unset, dist.Unset, dist.Unset}
	in := hardcoreInstance(t, g, 1, pin)
	o := sawOracle(t, g, 1)
	res, err := Boost(in, o, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Marginal[1] != 1 {
		t.Errorf("pinned boost marginal = %v", res.Marginal)
	}
}

func TestBoostConditionalInstance(t *testing.T) {
	// Boost must respect existing pinnings (self-reducibility).
	g := graph.Cycle(8)
	pin := dist.NewConfig(8)
	pin[4] = model.In
	in := hardcoreInstance(t, g, 1.2, pin)
	o := sawOracle(t, g, 1.2)
	res, err := Boost(in, o, 0, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.Marginal(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	me, err := dist.MultErr(res.Marginal, want)
	if err != nil {
		t.Fatal(err)
	}
	if me > 0.2 {
		t.Errorf("conditional boost error %v", me)
	}
}

func TestBoostInputValidation(t *testing.T) {
	g := graph.Path(3)
	in := hardcoreInstance(t, g, 1, nil)
	o := sawOracle(t, g, 1)
	if _, err := Boost(in, nil, 0, 0.1); err == nil {
		t.Error("nil oracle accepted")
	}
	if _, err := Boost(in, o, 0, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := Boost(in, o, 0, 1.5); err == nil {
		t.Error("eps>1 accepted")
	}
}

func TestBoostOracleFeedsJVV(t *testing.T) {
	// The Theorem 4.2 composition: additive decay oracle → boosting →
	// multiplicative oracle → local JVV, statistically exact.
	g := graph.Cycle(5)
	lambda := 0.8
	in := hardcoreInstance(t, g, lambda, nil)
	add := sawOracle(t, g, lambda)
	mult := &BoostOracle{Additive: add}
	// Modest eps keeps the boosting shell radius small enough for the
	// within-ball enumeration at test sizes.
	jvvExactnessCheck(t, in, mult, JVVConfig{Eps: 0.01, FullRatio: true}, 8000, 0.04, 91)
}

func TestSSMInferenceAccuracy(t *testing.T) {
	// Theorem 5.1 converse: shell pinning + within-ball exact marginal is
	// within δ_n(t) of the truth.
	g := graph.Cycle(12)
	lambda := 1.0
	in := hardcoreInstance(t, g, lambda, nil)
	want, err := exact.Marginal(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = math.Inf(1)
	for _, radius := range []int{1, 2, 4} {
		got, used, err := SSMInference(in, 0, radius)
		if err != nil {
			t.Fatal(err)
		}
		if used < radius {
			t.Errorf("used radius %d < %d", used, radius)
		}
		tv, _ := dist.TV(got, want)
		if tv > prev+1e-9 {
			t.Errorf("SSM inference error not shrinking: %v then %v", prev, tv)
		}
		prev = tv
	}
	if prev > 0.05 {
		t.Errorf("radius-4 SSM inference error %v", prev)
	}
}

func TestSSMInferencePinnedVertex(t *testing.T) {
	g := graph.Path(5)
	pin := dist.Config{dist.Unset, dist.Unset, 1, dist.Unset, dist.Unset}
	in := hardcoreInstance(t, g, 1, pin)
	got, _, err := SSMInference(in, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != 1 {
		t.Errorf("pinned SSM marginal = %v", got)
	}
}

func TestSSMOracle(t *testing.T) {
	g := graph.Cycle(10)
	lambda := 0.9
	in := hardcoreInstance(t, g, lambda, nil)
	rate := model.HardcoreDecayRate(lambda, 2)
	o := &SSMOracle{Rate: rate, MaxRadius: 4}
	got, radius, err := o.Marginal(in, 3, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exact.Marginal(in, 3)
	if err != nil {
		t.Fatal(err)
	}
	tv, _ := dist.TV(got, want)
	if tv > 0.05 {
		t.Errorf("SSM oracle error %v (radius %d)", tv, radius)
	}
	bad := &SSMOracle{Rate: 1.5}
	if _, _, err := bad.Marginal(in, 0, 0.1); err == nil {
		t.Error("non-decaying rate accepted")
	}
}

func TestMeasureSSMHardcoreUniqueness(t *testing.T) {
	// In the uniqueness regime the measured discrepancy must decay with
	// distance; the fitted rate certifies exponential decay.
	g := graph.Path(13)
	lambda := 1.0 // Δ=2: always unique
	in := hardcoreInstance(t, g, lambda, nil)
	v := 6
	boundaries := []func([]int) dist.Config{
		func(sphere []int) dist.Config {
			c := dist.NewConfig(13)
			for _, u := range sphere {
				c[u] = model.Out
			}
			return c
		},
		func(sphere []int) dist.Config {
			c := dist.NewConfig(13)
			for _, u := range sphere {
				c[u] = model.In
			}
			return c
		},
	}
	points, err := MeasureSSM(in, v, 6, boundaries)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 4 {
		t.Fatalf("too few SSM points: %v", points)
	}
	for i := 1; i < len(points); i++ {
		if points[i].TV > points[i-1].TV+1e-9 {
			t.Errorf("TV not decaying: %v", points)
		}
	}
	alpha, used := FitDecayRate(points, true)
	if used < 3 {
		t.Fatalf("fit used only %d points", used)
	}
	if alpha <= 0 || alpha >= 1 {
		t.Errorf("fitted rate %v not certifying decay", alpha)
	}
	// Corollary 5.2: multiplicative error decays at the same rate.
	alphaMult, usedMult := FitDecayRate(points, false)
	if usedMult >= 3 && math.Abs(alphaMult-alpha) > 0.25 {
		t.Errorf("TV rate %v and multiplicative rate %v diverge", alpha, alphaMult)
	}
}

func TestMeasureSSMNeedsTwoBoundaries(t *testing.T) {
	g := graph.Path(5)
	in := hardcoreInstance(t, g, 1, nil)
	if _, err := MeasureSSM(in, 2, 2, nil); err == nil {
		t.Error("no boundaries accepted")
	}
}

func TestInferenceImpliesSSMBound(t *testing.T) {
	// δ_n(t) = 2n·α^{t−1} decreases in t and is ≤ 1.
	prev := 2.0
	for tt := 1; tt <= 30; tt++ {
		d := InferenceImpliesSSM(0.7, 100, tt)
		if d > prev+1e-12 {
			t.Fatalf("bound not monotone at t=%d", tt)
		}
		if d > 1 {
			t.Fatalf("bound exceeds 1")
		}
		prev = d
	}
	if InferenceImpliesSSM(0.7, 100, 200) > 1e-20 {
		t.Error("bound should vanish at large t")
	}
}

func TestTheoreticalLog3N(t *testing.T) {
	if TheoreticalLog3N(1, 1) <= 0 {
		t.Error("nonpositive log³")
	}
	if TheoreticalLog3N(1000, 1) <= TheoreticalLog3N(10, 1) {
		t.Error("log³ not increasing")
	}
}

func TestBoostShellIsOutsideInnerBall(t *testing.T) {
	g := graph.Cycle(16)
	lambda := 0.5
	in := hardcoreInstance(t, g, lambda, nil)
	o := sawOracle(t, g, lambda)
	res, err := Boost(in, o, 0, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	// The shell must not intersect the inner ball of radius t where
	// t = radius of the additive oracle at ε/(5qn): reconstruct t from
	// the reported 2t+ℓ.
	ell := 1
	tRadius := (res.Radius - ell) / 2
	for _, u := range res.Shell {
		if d := g.Dist(0, u); d <= tRadius {
			t.Errorf("shell vertex %d at distance %d inside inner ball (t=%d)", u, d, tRadius)
		}
	}
	for v, x := range res.ShellPins {
		inShell := false
		for _, u := range res.Shell {
			if u == v {
				inShell = true
			}
		}
		if x != dist.Unset && !inShell {
			t.Errorf("pin outside shell at %d", v)
		}
	}
}

// Referenced helper kept close to the SSM tests: the gibbs import is used
// by several subtests through hardcoreInstance.
var _ = gibbs.ErrInfeasible
