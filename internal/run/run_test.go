package run

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
)

func hardcoreInstance(t *testing.T, n int, lambda float64) *gibbs.Instance {
	t.Helper()
	g := graph.Cycle(n)
	spec, err := model.Hardcore(g, lambda)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestPolicyValidation(t *testing.T) {
	in := hardcoreInstance(t, 6, 1.0)
	cases := []struct {
		name string
		p    Policy
	}{
		{"no stages", Policy{}},
		{"empty dynamic", Policy{Stages: []Stage{{}}}},
		{"one chain", Policy{Stages: []Stage{{Dynamic: "chromatic"}}, Chains: 1}},
		{"rhat below 1", Policy{Stages: []Stage{{Dynamic: "chromatic"}}, Rhat: 0.5}},
		{"negative burn-in", Policy{Stages: []Stage{{Dynamic: "chromatic"}}, BurnIn: -1}},
		{"rate above 1", Policy{Stages: []Stage{{Dynamic: "chromatic", MinRate: 1.5}, {Dynamic: "metropolis"}}}},
		// NaN fails every comparison, so a NaN target or trigger would
		// never fire; +Inf R̂ would pass every first check and +Inf ESS
		// none.
		{"rhat NaN", Policy{Stages: []Stage{{Dynamic: "chromatic"}}, Rhat: math.NaN()}},
		{"rhat +Inf", Policy{Stages: []Stage{{Dynamic: "chromatic"}}, Rhat: math.Inf(1)}},
		{"min ESS NaN", Policy{Stages: []Stage{{Dynamic: "chromatic"}}, MinESS: math.NaN()}},
		{"min ESS +Inf", Policy{Stages: []Stage{{Dynamic: "chromatic"}}, MinESS: math.Inf(1)}},
		{"rate NaN", Policy{Stages: []Stage{{Dynamic: "chromatic", MinRate: math.NaN()}, {Dynamic: "metropolis"}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := Drive(in, 1, tc.p)
			var pe *PolicyError
			if !errors.As(err, &pe) {
				t.Errorf("Drive(%+v) error = %v, want *PolicyError", tc.p, err)
			}
		})
	}
	// Dynamics without a batched form are a construction error, not a
	// PolicyError.
	if _, _, err := One(in, "glauber", 1, Policy{}); err == nil {
		t.Error("sequential baseline accepted as a driver stage")
	}
	if _, _, err := One(in, "nosuch", 1, Policy{}); err == nil {
		t.Error("unknown dynamic accepted")
	}
}

// TestDriveConvergesEarly: a fast-mixing instance under a realistic
// threshold stops well before the budget, with a coherent report.
func TestDriveConvergesEarly(t *testing.T) {
	in := hardcoreInstance(t, 8, 1.0)
	rep, m, err := One(in, "chromatic", 5, Policy{
		Chains:     8,
		MaxSweeps:  512,
		CheckEvery: 2,
		BurnIn:     4,
		Rhat:       1.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Reason != Converged {
		t.Fatalf("Reason = %q, Converged = %v; want converged (final R̂ %v)", rep.Reason, rep.Converged, rep.Rhat)
	}
	if rep.Sweeps >= 512 {
		t.Errorf("Sweeps = %d, want an early stop < 512", rep.Sweeps)
	}
	// The classic statistic can dip marginally below 1 (varPlus shrinks
	// within by (T-1)/T when chains agree closely).
	if rep.Rhat > 1.1 || rep.Rhat < 0.9 {
		t.Errorf("final R̂ = %v, want within [0.9, 1.1]", rep.Rhat)
	}
	if math.IsNaN(rep.SplitRhat) || rep.SplitVertex < 0 {
		t.Errorf("split diagnostic missing: SplitRhat = %v, SplitVertex = %d", rep.SplitRhat, rep.SplitVertex)
	}
	if rep.Dynamic != "chromatic" || len(rep.Stages) != 1 {
		t.Errorf("Dynamic = %q, %d stages; want one chromatic stage", rep.Dynamic, len(rep.Stages))
	}
	st := rep.Stages[0]
	if len(st.Checks) == 0 || st.Sweeps != rep.Sweeps {
		t.Errorf("stage report incoherent: %+v", st)
	}
	last := st.Checks[len(st.Checks)-1]
	if last.Rhat != rep.Rhat || last.SplitRhat != rep.SplitRhat {
		t.Error("final check and report disagree on R̂")
	}
	if m.Chains() != 8 {
		t.Errorf("returned engine has %d chains, want 8", m.Chains())
	}
	if err := m.Lattice().CheckAssigned(); err != nil {
		t.Errorf("final lattice invalid: %v", err)
	}
	// The chromatic engine counts unconditional updates: rate exactly 1.
	if got := st.Checks[0].Rate; got != 1 {
		t.Errorf("chromatic update rate = %v, want exactly 1", got)
	}
}

// TestDriveBudgetStop: an unreachable target runs the budget out.
func TestDriveBudgetStop(t *testing.T) {
	in := hardcoreInstance(t, 8, 1.0)
	rep, _, err := One(in, "luby", 3, Policy{
		Chains:     4,
		MaxSweeps:  12,
		CheckEvery: 2,
		MinESS:     1e12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Converged || rep.Reason != Budget {
		t.Errorf("Reason = %q, Converged = %v; want budget stop", rep.Reason, rep.Converged)
	}
	if rep.Sweeps != 12 {
		t.Errorf("Sweeps = %d, want the whole budget 12", rep.Sweeps)
	}
}

// TestDriveNoCheckBeforeCadence: a budget shorter than the cadence ends
// with the sentinel diagnostics, not a phantom check.
func TestDriveNoCheckBeforeCadence(t *testing.T) {
	in := hardcoreInstance(t, 6, 1.0)
	rep, _, err := One(in, "chromatic", 1, Policy{MaxSweeps: 3, CheckEvery: 8, Rhat: 1.05})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(rep.Rhat) || rep.WorstVertex != -1 || len(rep.Stages[0].Checks) != 0 {
		t.Errorf("expected no checks: %+v", rep)
	}
	if !math.IsNaN(rep.SplitRhat) || rep.SplitVertex != -1 {
		t.Errorf("expected split sentinels: %+v", rep)
	}
	if rep.Reason != Budget {
		t.Errorf("Reason = %q, want budget", rep.Reason)
	}
}

// TestDriveStageBudgetEscalation: a capped first stage hands its lattice
// to the second, which finishes.
func TestDriveStageBudgetEscalation(t *testing.T) {
	in := hardcoreInstance(t, 8, 1.0)
	rep, _, err := Drive(in, 7, Policy{
		Stages: []Stage{
			{Dynamic: "chromatic", MaxSweeps: 6},
			{Dynamic: "metropolis"},
		},
		Chains:     8,
		MaxSweeps:  512,
		CheckEvery: 2,
		Rhat:       1.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stages) != 2 {
		t.Fatalf("ran %d stages, want 2 (%+v)", len(rep.Stages), rep)
	}
	if rep.Stages[0].Reason != StageBudget || rep.Stages[0].Sweeps != 6 {
		t.Errorf("stage 0 = %+v, want stage-budget exit after 6 sweeps", rep.Stages[0])
	}
	if rep.Dynamic != "metropolis" {
		t.Errorf("finished dynamic = %q, want metropolis", rep.Dynamic)
	}
	if !rep.Converged {
		t.Errorf("escalated run did not converge: %+v", rep)
	}
	if rep.Sweeps != rep.Stages[0].Sweeps+rep.Stages[1].Sweeps {
		t.Errorf("Sweeps = %d, stages sum to %d", rep.Sweeps, rep.Stages[0].Sweeps+rep.Stages[1].Sweeps)
	}
}

// TestDriveRateCollapseEscalation: a Metropolis stage with an acceptance
// floor above its actual rate escalates with RateCollapse.
func TestDriveRateCollapseEscalation(t *testing.T) {
	// High fugacity makes hardcore proposals conflict often: acceptance
	// sits far below the 0.999 floor.
	in := hardcoreInstance(t, 8, 4.0)
	rep, _, err := Drive(in, 11, Policy{
		Stages: []Stage{
			{Dynamic: "metropolis", MinRate: 0.999},
			{Dynamic: "chromatic"},
		},
		Chains:     8,
		MaxSweeps:  512,
		CheckEvery: 2,
		Rhat:       1.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stages[0].Reason != RateCollapse {
		t.Fatalf("stage 0 reason = %q, want rate-collapse (%+v)", rep.Stages[0].Reason, rep.Stages[0])
	}
	ck := rep.Stages[0].Checks[len(rep.Stages[0].Checks)-1]
	if math.IsNaN(ck.Rate) || ck.Rate >= 0.999 {
		t.Errorf("collapse check rate = %v, want < 0.999", ck.Rate)
	}
	if rep.Dynamic != "chromatic" {
		t.Errorf("finished dynamic = %q, want chromatic", rep.Dynamic)
	}
}

// TestDriveDeterministic: (instance, seed, policy) fixes the whole report
// and the final lattice — the contract the corpus property test holds
// across every instance; this is the unit-sized pin.
func TestDriveDeterministic(t *testing.T) {
	in := hardcoreInstance(t, 8, 1.0)
	p := Policy{
		Stages: []Stage{
			{Dynamic: "luby", MaxSweeps: 5},
			{Dynamic: "metropolis"},
		},
		Chains:     6,
		MaxSweeps:  40,
		CheckEvery: 2,
		BurnIn:     2,
		Rhat:       1.05,
		MinESS:     30,
	}
	repA, mA, err := Drive(in, 23, p)
	if err != nil {
		t.Fatal(err)
	}
	repB, mB, err := Drive(in, 23, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(repA, repB) {
		t.Errorf("same (instance, seed, policy), different reports:\n%+v\n%+v", repA, repB)
	}
	for c := 0; c < mA.Chains(); c++ {
		a, b := mA.Chain(c), mB.Chain(c)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("chain %d differs at vertex %d", c, v)
			}
		}
	}
}
