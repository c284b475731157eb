package sampler

// sampler_test.go validates the registry and the batched engine end to
// end: every registered dynamic must drive every model builder to the
// exact Gibbs distribution within the sampling-noise envelope, the batch
// engine must do so for all of its chains at once (including with a
// forced multi-worker pool, so the chains×blocks partition runs under the
// race detector), and pinning/feasibility invariants must hold throughout.

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/psample"
	"repro/internal/state"
)

func TestRegistryHasBuiltins(t *testing.T) {
	want := []string{"chromatic", "glauber", "luby", "metropolis"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		info, ok := Lookup(name)
		if !ok || info.Synopsis == "" {
			t.Errorf("Lookup(%q) = %+v, %v", name, info, ok)
		}
	}
}

func TestNewUnknownDynamic(t *testing.T) {
	spec, err := model.Hardcore(graph.Path(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Create("nosuch", in, Options{Seed: 1}); err == nil {
		t.Error("unknown dynamic accepted")
	}
	if _, err := SweepRounds("nosuch", in); err == nil {
		t.Error("unknown dynamic accepted by SweepRounds")
	}
}

// TestCreateSelectsEngine pins Create's Options contract: every batched
// dynamic returns a MultiChain, with Chains 0 and 1 both meaning one
// chain; construction is a pure function of (name, chains, seed); the
// single-chain baseline rejects Chains > 1 with a descriptive error; and
// Register refuses an entry with no constructor or with both.
func TestCreateSelectsEngine(t *testing.T) {
	spec, err := model.Hardcore(graph.Cycle(6), 1.2)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Create("nosuch", in, Options{}); err == nil {
		t.Error("unknown dynamic accepted")
	}
	for _, name := range Names() {
		single, err := Create(name, in, Options{Seed: 5})
		if err != nil {
			t.Fatalf("Create(%q, Chains: 0) = %v", name, err)
		}
		if err := single.Run(3); err != nil {
			t.Fatalf("%q one-chain Run: %v", name, err)
		}
	}
	for _, name := range MultiNames() {
		for _, chains := range []int{0, 1, 4} {
			s, err := Create(name, in, Options{Chains: chains, Seed: 5})
			if err != nil {
				t.Fatalf("Create(%q, Chains: %d) = %v", name, chains, err)
			}
			m, ok := s.(MultiChain)
			if !ok {
				t.Fatalf("Create(%q, Chains: %d) does not implement MultiChain", name, chains)
			}
			if want := max(chains, 1); m.Chains() != want {
				t.Errorf("Create(%q, Chains: %d).Chains() = %d, want %d", name, chains, m.Chains(), want)
			}
			// Construction is a pure function of (name, chains, seed): a
			// second engine must follow the same chain-0 trajectory.
			again, err := Create(name, in, Options{Chains: chains, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			twin := again.(MultiChain)
			if err := m.Run(5); err != nil {
				t.Fatal(err)
			}
			if err := twin.Run(5); err != nil {
				t.Fatal(err)
			}
			got, want := m.Chain(0), twin.Chain(0)
			for v := range got {
				if got[v] != want[v] {
					t.Errorf("two Create(%q, Chains: %d) calls diverge at vertex %d", name, chains, v)
					break
				}
			}
		}
		// Chains 0 is Chains 1: the same engine, the same trajectory.
		zero, err := Create(name, in, Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		one, err := Create(name, in, Options{Chains: 1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if err := zero.Run(7); err != nil {
			t.Fatal(err)
		}
		if err := one.Run(7); err != nil {
			t.Fatal(err)
		}
		if got, want := zero.State(), one.State(); !slices.Equal(got, want) {
			t.Errorf("Create(%q): Chains 0 gives %v, Chains 1 gives %v", name, got, want)
		}
		// A negative count reaches the engine's typed shape error.
		var de *state.DomainError
		if _, err := Create(name, in, Options{Chains: -3}); !errors.As(err, &de) {
			t.Errorf("Create(%q, Chains: -3) = %v, want *state.DomainError", name, err)
		}
	}
	// The single-chain baseline runs one chain: a descriptive error, not a
	// panic, for any other count.
	if _, err := Create("glauber", in, Options{Chains: 1}); err != nil {
		t.Errorf("Create(glauber, Chains: 1) = %v", err)
	}
	for _, chains := range []int{2, 4, -1} {
		if _, err := Create("glauber", in, Options{Chains: chains}); err == nil {
			t.Errorf("Create(glauber, Chains: %d) accepted", chains)
		}
	}
	// Register: exactly one constructor.
	newSeq := func(*gibbs.Instance, int64) (Sampler, error) { return nil, nil }
	newMulti := func(*gibbs.Instance, int, int64) (MultiChain, error) { return nil, nil }
	sweep := func(*gibbs.Instance) int { return 1 }
	for name, info := range map[string]Info{
		"neither": {Name: "test-neither", SweepRounds: sweep},
		"both":    {Name: "test-both", SweepRounds: sweep, New: newSeq, NewBatch: newMulti},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register accepted an entry with %s constructor(s)", name)
				}
			}()
			Register(info)
		}()
		if _, ok := Lookup(info.Name); ok {
			t.Errorf("rejected entry %q was registered", info.Name)
		}
	}
}

// TestCreateSharesInstanceRules: Create compiles an instance's rules once
// and every engine created on the instance after shares them, so two
// chromatic engines hold the one class schedule, while an engine on a
// second instance of the same spec holds its own.
func TestCreateSharesInstanceRules(t *testing.T) {
	spec, err := model.Hardcore(graph.Torus(4, 4), 1)
	if err != nil {
		t.Fatal(err)
	}
	classes := func(in *gibbs.Instance) [][]int {
		t.Helper()
		s, err := Create("chromatic", in, Options{Chains: 2, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return s.(*psample.BatchChromaticGlauber).Classes()
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := classes(in)
	if &classes(in)[0][0] != &first[0][0] {
		t.Error("two engines on one instance hold separate class schedules")
	}
	if &classes(other)[0][0] == &first[0][0] {
		t.Error("engines on two instances share a class schedule")
	}
}

func TestSweepRoundsPerDynamic(t *testing.T) {
	spec, err := model.Hardcore(graph.Cycle(8), 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"glauber": 8, "luby": 3, "metropolis": 1, "chromatic": 1}
	for name, w := range want {
		got, err := SweepRounds(name, in)
		if err != nil || got != w {
			t.Errorf("SweepRounds(%q) = %d, %v; want %d", name, got, err, w)
		}
	}
}

// TestEveryDynamicMatchesExact runs each registered dynamic through the
// uniform interface on a hardcore cycle and pins its output distribution
// to the brute-force referee. This is the registry-level analogue of the
// per-engine TV tests in internal/psample.
func TestEveryDynamicMatchesExact(t *testing.T) {
	spec, err := model.Hardcore(graph.Cycle(6), 1.2)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := exact.JointDistribution(in)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 4000
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s, err := Create(name, in, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			sweep, err := SweepRounds(name, in)
			if err != nil {
				t.Fatal(err)
			}
			emp := dist.NewEmpirical(in.N())
			for i := 0; i < trials; i++ {
				if err := s.Reset(int64(2000 + i)); err != nil {
					t.Fatal(err)
				}
				if err := s.Run(40 * sweep); err != nil {
					t.Fatal(err)
				}
				emp.Observe(s.State())
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
			if s.Rounds() != 40*sweep {
				t.Errorf("Rounds() = %d, want %d", s.Rounds(), 40*sweep)
			}
		})
	}
}

// TestBatchMatchesExact drives B chains at once and pins the pooled
// output distribution: chains draw from disjoint parts of the worker RNG
// streams, so all B final states of one run are independent samples.
func TestBatchMatchesExact(t *testing.T) {
	type specCase struct {
		name string
		spec *gibbs.Spec
		err  error
	}
	hc, hcErr := model.Hardcore(graph.Cycle(6), 1.2)
	is, isErr := model.Ising(graph.Cycle(6), 0.5, 0.8)
	col, colErr := model.Coloring(graph.Path(3), 4)
	cases := []specCase{
		{"hardcore", hc, hcErr},
		{"ising", is, isErr},
		{"coloring", col, colErr},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.err != nil {
				t.Fatal(c.err)
			}
			in, err := gibbs.NewInstance(c.spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := exact.JointDistribution(in)
			if err != nil {
				t.Fatal(err)
			}
			r, err := psample.RulesOf(in)
			if err != nil {
				t.Fatal(err)
			}
			const B, runs = 16, 400
			b, err := psample.NewBatchChromaticGlauber(r, B, 1)
			if err != nil {
				t.Fatal(err)
			}
			emp := dist.NewEmpirical(in.N())
			for i := 0; i < runs; i++ {
				if err := b.Reset(int64(3000 + i)); err != nil {
					t.Fatal(err)
				}
				if err := b.Run(40); err != nil {
					t.Fatal(err)
				}
				for ch := 0; ch < B; ch++ {
					emp.Observe(b.Chain(ch))
				}
			}
			got, err := emp.Joint()
			if err != nil {
				t.Fatal(err)
			}
			tv, err := dist.TVJoint(truth, got)
			if err != nil {
				t.Fatal(err)
			}
			tol := 2.5 * dist.ExpectedTVNoise(truth.Len(), B*runs)
			if tv > tol {
				t.Errorf("TV vs exact = %v > envelope %v", tv, tol)
			}
		})
	}
}

// TestBatchForcedWorkers forces a multi-worker pool on an instance small
// enough that the default heuristic would run inline, so the
// chains×blocks partition and its barriers execute under the race
// detector, and checks feasibility and pinning of every chain throughout.
func TestBatchForcedWorkers(t *testing.T) {
	spec, err := model.Hardcore(graph.Cycle(7), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pin := dist.NewConfig(7)
	pin[2] = model.Out
	in, err := gibbs.NewInstance(spec, pin)
	if err != nil {
		t.Fatal(err)
	}
	r, err := psample.RulesOf(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3} {
		for _, B := range []int{1, 5, 33} {
			b, err := psample.NewBatchChromaticGlauber(r, B, 17)
			if err != nil {
				t.Fatal(err)
			}
			b.SetWorkers(workers)
			for batch := 0; batch < 6; batch++ {
				if err := b.Run(4); err != nil {
					t.Fatal(err)
				}
				for ch := 0; ch < B; ch++ {
					cfg := b.Chain(ch)
					if cfg[2] != model.Out {
						t.Fatalf("workers=%d B=%d chain %d: pinning violated: %v", workers, B, ch, cfg)
					}
					w, err := spec.Weight(cfg)
					if err != nil || w <= 0 {
						t.Fatalf("workers=%d B=%d chain %d: infeasible %v (w=%v err=%v)", workers, B, ch, cfg, w, err)
					}
				}
			}
			if b.Rounds() != 24 {
				t.Errorf("Rounds() = %d, want 24", b.Rounds())
			}
		}
	}
}

// TestBatchChainsDecorrelated checks that distinct chains actually evolve
// independently: after a few sweeps on a large-entropy instance the B
// chains must not all agree (they start identical, so any RNG-stream
// aliasing across chains would keep them in lockstep).
func TestBatchChainsDecorrelated(t *testing.T) {
	spec, err := model.Ising(graph.Cycle(12), 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := psample.RulesOf(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := psample.NewBatchChromaticGlauber(r, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(10); err != nil {
		t.Fatal(err)
	}
	first := b.Chain(0)
	distinct := false
	for ch := 1; ch < b.Chains(); ch++ {
		if !b.Chain(ch).Equal(first) {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Error("all 8 chains identical after 10 sweeps — chain randomness is aliased")
	}
}

func TestBatchRejectsBadChainCount(t *testing.T) {
	spec, err := model.Hardcore(graph.Path(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := psample.RulesOf(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := psample.NewBatchChromaticGlauber(r, 0, 1); err == nil {
		t.Error("0 chains accepted")
	}
}

// TestBatchFullyPinned checks the degenerate schedule: with every vertex
// pinned there are no stages and sweeps are counted no-ops.
func TestBatchFullyPinned(t *testing.T) {
	spec, err := model.Hardcore(graph.Path(2), 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, dist.Config{model.Out, model.Out})
	if err != nil {
		t.Fatal(err)
	}
	r, err := psample.RulesOf(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := psample.NewBatchChromaticGlauber(r, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Run(5); err != nil {
		t.Fatal(err)
	}
	if b.Rounds() != 5 {
		t.Errorf("Rounds() = %d, want 5", b.Rounds())
	}
	if cfg := b.Chain(1); cfg[0] != model.Out || cfg[1] != model.Out {
		t.Errorf("pinned state moved: %v", cfg)
	}
}

// TestRunRejectsNegativeCount: on every registered dynamic, Run with a
// negative count returns an error and changes nothing — not the round or
// update counters, not a chain, not the RNG streams (the run that follows
// matches a twin that never saw the bad call) — on a free and on a fully
// pinned 6-cycle hardcore instance.
func TestRunRejectsNegativeCount(t *testing.T) {
	spec, err := model.Hardcore(graph.Cycle(6), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	free, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := gibbs.NewInstance(spec, dist.Config{0, 1, 0, 1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	type updater interface{ Updates() int64 }
	snapshot := func(s Sampler) (int, int64, []dist.Config) {
		var u int64
		if su, ok := s.(updater); ok {
			u = su.Updates()
		}
		var chains []dist.Config
		if m, ok := s.(MultiChain); ok {
			for c := 0; c < m.Chains(); c++ {
				chains = append(chains, m.Chain(c))
			}
		} else {
			chains = append(chains, s.State())
		}
		return s.Rounds(), u, chains
	}
	for _, inst := range []struct {
		name string
		in   *gibbs.Instance
	}{{"free", free}, {"pinned", pinned}} {
		for _, name := range Names() {
			t.Run(inst.name+"/"+name, func(t *testing.T) {
				var s, twin Sampler
				for _, p := range []*Sampler{&s, &twin} {
					if *p, err = Create(name, inst.in, Options{Seed: 4}); err != nil {
						t.Fatal(err)
					}
					if err := (*p).Run(3); err != nil {
						t.Fatal(err)
					}
				}
				r0, u0, c0 := snapshot(s)
				if err := s.Run(-3); err == nil {
					t.Fatal("Run(-3) accepted")
				}
				r1, u1, c1 := snapshot(s)
				if r1 != r0 || u1 != u0 || !reflect.DeepEqual(c1, c0) {
					t.Fatalf("Run(-3) changed the engine: rounds %d -> %d, updates %d -> %d", r0, r1, u0, u1)
				}
				for _, x := range []Sampler{s, twin} {
					if err := x.Run(3); err != nil {
						t.Fatal(err)
					}
				}
				r2, u2, c2 := snapshot(s)
				rt, ut, ct := snapshot(twin)
				if r2 != rt || u2 != ut || !reflect.DeepEqual(c2, ct) {
					t.Fatalf("the run after Run(-3) diverged from its twin: rounds %d/%d, updates %d/%d", r2, rt, u2, ut)
				}
			})
		}
	}
}

// TestFailedRunMovesNoCounter: a Run that fails in a stage returns the
// stage's error and moves neither the round counter nor the update
// counter, and leaves nothing behind that a later Run would add. The
// gadget is the q = 2 colouring of two disjoint paths 0–1–2 and 3–4–5
// with 3 and 5 pinned to 0; after two good rounds the pinned cell (5,
// chain 3) is overwritten with 1, so vertex 4 of chain 3 has no colour
// left and its heat-bath update fails with dist.ErrZeroMass. Vertex 4 has
// no free rival, so LubyGlauber selects it in every round.
func TestFailedRunMovesNoCounter(t *testing.T) {
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		g.MustAddEdge(e[0], e[1])
	}
	spec, err := model.Coloring(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	pin := dist.NewConfig(6)
	pin[3], pin[5] = 0, 0
	in, err := gibbs.NewInstance(spec, pin)
	if err != nil {
		t.Fatal(err)
	}
	type updater interface {
		MultiChain
		Updates() int64
		SetWorkers(int)
	}
	for _, name := range []string{"luby", "chromatic"} {
		t.Run(name, func(t *testing.T) {
			s, err := Create(name, in, Options{Chains: 4, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			m := s.(updater)
			m.SetWorkers(1)
			if err := m.Run(2); err != nil {
				t.Fatal(err)
			}
			m.Lattice().Set(5, 3, 1)
			rounds, updates := m.Rounds(), m.Updates()
			if err := m.Run(5); !errors.Is(err, dist.ErrZeroMass) {
				t.Fatalf("Run(5) on the broken chain = %v, want dist.ErrZeroMass", err)
			}
			if m.Rounds() != rounds || m.Updates() != updates {
				t.Fatalf("failed Run moved the counters: rounds %d → %d, updates %d → %d",
					rounds, m.Rounds(), updates, m.Updates())
			}
			if err := m.Run(0); err != nil {
				t.Fatal(err)
			}
			if m.Updates() != updates {
				t.Fatalf("Run(0) after the failed Run: updates %d → %d", updates, m.Updates())
			}
		})
	}
}
