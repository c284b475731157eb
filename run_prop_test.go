package repro_test

// run_prop_test.go: the adaptive-driver determinism property. The run
// package's contract is that (instance, seed, policy) fixes the stop
// decision, the full Report, and the final lattice bit-for-bit; the unit
// test in internal/run pins it on one instance, this test holds it across
// the whole declarative corpus — every instance of testdata/corpus/ under
// every registered batched dynamic, a two-stage escalation with the
// lattice handoff, and the ChromaticGlauber LOCAL harness. The CI race
// job runs these, so any data race on the shared per-worker RNG streams
// or the observation buffer surfaces here too.

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/model"
	"repro/internal/psample"
	"repro/internal/run"
	"repro/internal/sampler"
	"repro/internal/spec"
)

// corpusInstances loads every instance document of testdata/corpus/
// (golden_partition.json is an oracle fixture, not a spec).
func corpusInstances(t *testing.T) map[string]*gibbs.Instance {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("empty corpus")
	}
	out := make(map[string]*gibbs.Instance)
	for _, p := range paths {
		name := filepath.Base(p)
		if name == "golden_partition.json" {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := spec.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := f.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[strings.TrimSuffix(name, ".json")] = b.Instance
	}
	return out
}

// sameChains fails the test unless the two engines hold identical
// configurations on every chain.
func sameChains(t *testing.T, a, b sampler.MultiChain) {
	t.Helper()
	if a.Chains() != b.Chains() {
		t.Fatalf("chain counts differ: %d vs %d", a.Chains(), b.Chains())
	}
	for c := 0; c < a.Chains(); c++ {
		ca, cb := a.Chain(c), b.Chain(c)
		for v := range ca {
			if ca[v] != cb[v] {
				t.Fatalf("chain %d differs at vertex %d: %d vs %d", c, v, ca[v], cb[v])
			}
		}
	}
}

func TestDriverDeterministicAcrossCorpus(t *testing.T) {
	const seed = 17
	policy := run.Policy{
		Chains:     6,
		BurnIn:     2,
		MaxSweeps:  20,
		CheckEvery: 2,
		Rhat:       1.1,
		MinESS:     50,
		Workers:    3,
	}
	for name, in := range corpusInstances(t) {
		t.Run(name, func(t *testing.T) {
			for _, dyn := range sampler.MultiNames() {
				t.Run(dyn, func(t *testing.T) {
					repA, mA, err := run.One(in, dyn, seed, policy)
					if err != nil {
						t.Fatal(err)
					}
					repB, mB, err := run.One(in, dyn, seed, policy)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(repA, repB) {
						t.Errorf("same (instance, seed, policy), different reports:\n%+v\n%+v", repA, repB)
					}
					sameChains(t, mA, mB)
				})
			}
			// The escalation path: a capped chromatic stage hands its
			// lattice to metropolis; the handoff must reproduce too.
			t.Run("escalation", func(t *testing.T) {
				p := policy
				p.Stages = []run.Stage{
					{Dynamic: "chromatic", MaxSweeps: 4},
					{Dynamic: "metropolis"},
				}
				repA, mA, err := run.Drive(in, seed, p)
				if err != nil {
					t.Fatal(err)
				}
				repB, mB, err := run.Drive(in, seed, p)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(repA, repB) {
					t.Errorf("escalation reports differ:\n%+v\n%+v", repA, repB)
				}
				sameChains(t, mA, mB)
			})
		})
	}
}

// TestDriveIndependentOfGOMAXPROCS: GOMAXPROCS sets how many vertex
// blocks a check's split-R̂/ESS pass cuts and, when the policy pins fewer
// engine workers than there are cores, lets the pass run in the
// background on the cores left over; the engines stay pinned to the
// policy's worker count. Neither the Report nor the final lattice may
// depend on it — on a torus large enough for several blocks and on every
// corpus document (one block, under the escalation policy of the corpus
// benchmark), both with an ESS floor at the default workers (every pass
// inline) and gated on R̂ alone at one worker (at GOMAXPROCS 1 every pass
// is inline, the reference; above it passes run beside the engine).
func TestDriveIndependentOfGOMAXPROCS(t *testing.T) {
	const seed = 23
	// The suffix names the policy in the subtest names.
	policies := []struct {
		suffix string
		policy run.Policy
	}{
		{"", run.Policy{Chains: 16, Rhat: 1.05, MinESS: 50}},
		{"-w1", run.Policy{Chains: 16, Rhat: 1.05, Workers: 1}},
	}
	type drive struct {
		in     *gibbs.Instance
		policy run.Policy
	}
	ising, err := model.Ising(graph.Torus(32, 32), 0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	isingIn, err := gibbs.NewInstance(ising, nil)
	if err != nil {
		t.Fatal(err)
	}
	drives := map[string]drive{}
	corpus := corpusInstances(t)
	for _, pol := range policies {
		p := pol.policy
		p.Stages = []run.Stage{{Dynamic: "chromatic"}}
		drives["ising-torus32/chromatic"+pol.suffix] = drive{isingIn, p}
		for name, in := range corpus {
			p := pol.policy
			p.Stages = []run.Stage{
				{Dynamic: "metropolis", MaxSweeps: 128, MinRate: 0.1},
				{Dynamic: "chromatic"},
			}
			drives[name+"/escalate"+pol.suffix] = drive{in, p}
		}
	}
	for name, d := range drives {
		t.Run(name, func(t *testing.T) {
			var (
				want  *run.Report
				wantM sampler.MultiChain
			)
			for _, procs := range []int{1, 2, 4} {
				prev := runtime.GOMAXPROCS(procs)
				rep, m, err := run.Drive(d.in, seed, d.policy)
				runtime.GOMAXPROCS(prev)
				if err != nil {
					t.Fatal(err)
				}
				if len(rep.Stages) == 0 || len(rep.Stages[len(rep.Stages)-1].Checks) == 0 {
					t.Fatalf("GOMAXPROCS %d: no convergence check ran", procs)
				}
				if want == nil {
					want, wantM = rep, m
					continue
				}
				if !reflect.DeepEqual(rep, want) {
					t.Errorf("GOMAXPROCS %d: report differs from GOMAXPROCS 1:\n%+v\n%+v", procs, rep, want)
				}
				sameChains(t, m, wantM)
			}
		})
	}
}

// TestChromaticLOCALDeterministicAcrossCorpus: the message-passing harness
// under the same contract — (instance, seed) fixes the output configuration
// and the LOCAL round count on every corpus instance.
func TestChromaticLOCALDeterministicAcrossCorpus(t *testing.T) {
	const (
		seed   = 29
		sweeps = 4
	)
	for name, in := range corpusInstances(t) {
		t.Run(name, func(t *testing.T) {
			r, err := psample.NewRules(in)
			if err != nil {
				t.Fatal(err)
			}
			cfgA, roundsA, err := psample.ChromaticGlauberLOCAL(local.NewNetwork(in.Spec.G), r, sweeps, seed)
			if err != nil {
				t.Fatal(err)
			}
			cfgB, roundsB, err := psample.ChromaticGlauberLOCAL(local.NewNetwork(in.Spec.G), r, sweeps, seed)
			if err != nil {
				t.Fatal(err)
			}
			if roundsA != roundsB {
				t.Fatalf("round counts differ: %d vs %d", roundsA, roundsB)
			}
			for v := range cfgA {
				if cfgA[v] != cfgB[v] {
					t.Fatalf("output differs at vertex %d: %d vs %d", v, cfgA[v], cfgB[v])
				}
			}
		})
	}
}
