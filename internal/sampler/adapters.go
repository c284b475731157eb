package sampler

// adapters.go registers the four built-in dynamics. The three batched
// engines satisfy MultiChain natively; the sequential chain needs a thin
// adapter that owns its RNG stream (glauber.Chain takes the generator per
// call).

import (
	"math/rand"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/glauber"
	"repro/internal/psample"
)

func init() {
	Register(Info{
		Name:     "glauber",
		Synopsis: "sequential random-scan heat-bath (the Θ(n log n)-update baseline); one round = one single-site update",
		New:      newSeqGlauber,
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
			return NewBatch(r, chains, seed)
		},
	})
}

// seqGlauber adapts glauber.Chain to the Sampler interface: it owns the
// RNG stream (stream 0 of the seed) and counts single-site updates as
// rounds.
type seqGlauber struct {
	chain  *glauber.Chain
	rng    *rand.Rand
	rounds int
}

func newSeqGlauber(in *gibbs.Instance, seed int64) (Sampler, error) {
	chain, err := glauber.New(in)
	if err != nil {
		return nil, err
	}
	return &seqGlauber{chain: chain, rng: dist.SeedStream(seed, 0)}, nil
}

func (s *seqGlauber) Reset(seed int64) error {
	if err := s.chain.Reset(); err != nil {
		return err
	}
	s.rng = dist.SeedStream(seed, 0)
	s.rounds = 0
	return nil
}

func (s *seqGlauber) Run(rounds int) error {
	if err := s.chain.Run(rounds, s.rng); err != nil {
		return err
	}
	s.rounds += rounds
	return nil
}

func (s *seqGlauber) State() dist.Config { return s.chain.State() }

func (s *seqGlauber) Rounds() int { return s.rounds }
