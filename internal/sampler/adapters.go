package sampler

// adapters.go registers the four built-in dynamics. The three batched
// engines satisfy MultiChain natively, and the sequential chain
// (glauber.Chain) satisfies Sampler natively: each owns its xoshiro
// streams and runs the fused kernels of internal/gibbs.

import (
	"repro/internal/gibbs"
	"repro/internal/glauber"
	"repro/internal/psample"
)

// Batch is the chromatic engine under its old name, kept for one user: the
// stagesPerRound type switch in perfbench/workload.go.
type Batch = psample.BatchChromaticGlauber

func init() {
	Register(Info{
		Name:     "glauber",
		Synopsis: "sequential random-scan heat-bath (the Θ(n log n)-update baseline); one round = one single-site update",
		New: func(in *gibbs.Instance, seed int64) (Sampler, error) {
			c, err := glauber.New(in, seed)
			if err != nil {
				return nil, err
			}
			return c, nil
		},
		SweepRounds: func(in *gibbs.Instance) int {
			return max(in.N(), 1)
		},
	})
	Register(Info{
		Name:     "luby",
		Synopsis: "LubyGlauber: one Luby phase picks an independent set, simultaneous heat-bath updates; one round = one phase",
		SweepRounds: func(in *gibbs.Instance) int {
			// A vertex wins a phase with probability ≥ 1/(Δ+1).
			return in.Spec.G.MaxDegree() + 1
		},
		NewBatch: func(in *gibbs.Instance, chains int, seed int64) (MultiChain, error) {
			r, err := psample.NewRules(in)
			if err != nil {
				return nil, err
			}
			return psample.NewBatchLubyGlauber(r, chains, seed)
		},
	})
	Register(Info{
		Name:        "metropolis",
		Synopsis:    "LocalMetropolis: every vertex proposes every round, per-factor filter acceptance; one round = one proposal round",
		SweepRounds: func(in *gibbs.Instance) int { return 1 },
		NewBatch: func(in *gibbs.Instance, chains int, seed int64) (MultiChain, error) {
			r, err := psample.NewRules(in)
			if err != nil {
				return nil, err
			}
			return psample.NewBatchLocalMetropolis(r, chains, seed)
		},
	})
	Register(Info{
		Name:        "chromatic",
		Synopsis:    "ChromaticGlauber: deterministic greedy-coloring schedule, one color class heat-bathed per stage; one round = one full χ-stage sweep",
		SweepRounds: func(in *gibbs.Instance) int { return 1 },
		NewBatch: func(in *gibbs.Instance, chains int, seed int64) (MultiChain, error) {
			r, err := psample.NewRules(in)
			if err != nil {
				return nil, err
			}
			return psample.NewBatchChromaticGlauber(r, chains, seed)
		},
	})
}
