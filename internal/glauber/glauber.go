// Package glauber implements single-site Glauber dynamics (heat-bath
// updates) for Gibbs distributions — the classical sequential MCMC sampler
// that the paper's distributed samplers are measured against. Glauber
// dynamics is the natural baseline: it is inherently sequential
// (Θ(n log n) single-site updates even when rapidly mixing, and each update
// conditions on the current global state), whereas the paper's point is
// that in the uniqueness regime the same distributions admit O(polylog n)
// *round* samplers with exact output. The package also provides mixing
// diagnostics used by the ablation benchmarks.
package glauber

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/state"
)

// Chain is a Glauber dynamics chain over a Gibbs instance: pinned vertices
// never move; free vertices are resampled from their exact conditional
// marginal given the rest of the current state. The configuration lives in
// a single-chain state.Lattice (one byte per vertex for every model this
// repo builds) and each update runs on the compiled evaluation engine,
// performing no heap allocation as long as every factor at the updated
// vertex is table-backed (always true for the internal/model builders;
// closure factors above the table cap allocate a scope buffer per
// evaluation).
type Chain struct {
	in    *gibbs.Instance
	eng   *gibbs.Compiled
	state *state.Lattice
	free  []int
	steps int
	// cond is the reusable conditional-weight buffer of length q.
	cond []float64
}

// ErrNoFeasibleStart indicates that no feasible initial state could be
// constructed.
var ErrNoFeasibleStart = errors.New("glauber: no feasible initial state")

// New returns a chain started from the greedy feasible completion of the
// instance pinning (for locally admissible distributions this always
// exists).
func New(in *gibbs.Instance) (*Chain, error) {
	eng := in.Spec.Compiled()
	start, err := eng.GreedyCompletion(in.Pinned)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoFeasibleStart, err)
	}
	w, err := eng.Weight(start)
	if err != nil {
		return nil, err
	}
	if w <= 0 {
		return nil, ErrNoFeasibleStart
	}
	lat, err := state.New(in.N(), 1, in.Q())
	if err != nil {
		return nil, err
	}
	if err := lat.SetChain(0, start); err != nil {
		return nil, err
	}
	return &Chain{
		in:    in,
		eng:   eng,
		state: lat,
		free:  in.FreeVertices(),
		cond:  make([]float64, in.Q()),
	}, nil
}

// State returns a copy of the current configuration.
func (c *Chain) State() dist.Config { return c.state.Chain(0) }

// Steps returns the number of single-site updates performed.
func (c *Chain) Steps() int { return c.steps }

// Reset restarts the chain from the greedy feasible completion of the
// instance pinning and zeroes the step counter, mirroring the Reset of the
// distributed engines so all dynamics restart the same way.
func (c *Chain) Reset() error {
	start, err := c.eng.GreedyCompletion(c.in.Pinned)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrNoFeasibleStart, err)
	}
	if err := c.state.SetChain(0, start); err != nil {
		return err
	}
	c.steps = 0
	return nil
}

// HeatBath performs one heat-bath update at vertex v of chain `chain` in
// place: the conditional distribution of v given the rest of the chain is
// proportional to the product of the factors containing v (all other
// factors cancel), computed by the compiled CondWeightsLattice kernel into
// cond (length ≥ q) and drawn by dist.SampleWeights — zero heap
// allocations in steady state. This single update rule is shared by the
// sequential chain and, as HeatBathX, by the LOCAL harnesses of
// internal/psample; the in-process engines compute the same conditional
// through the fused kernels of internal/gibbs.
func HeatBath(eng *gibbs.Compiled, l *state.Lattice, chain, v int, cond []float64, rng *rand.Rand) error {
	if cum, last, ok := eng.CondLookupLattice(l, chain, v); ok {
		// The conditional-CDF cache covers this neighborhood: the cached
		// cumulative row replaces the factor walk, and CondDrawCum maps the
		// same single uniform to the same symbol dist.SampleWeights would
		// return (uncovered calls — including bad rows — fall through and
		// keep the uncached path's diagnostics).
		l.Set(v, chain, gibbs.CondDrawCum(cum, last, rng.Float64()))
		return nil
	}
	w, err := eng.CondWeightsLattice(l, chain, v, cond)
	if err != nil {
		return fmt.Errorf("glauber: conditional at %d: %w", v, err)
	}
	x, err := dist.SampleWeights(w, rng)
	if err != nil {
		return fmt.Errorf("glauber: conditional at %d: %w", v, err)
	}
	l.Set(v, chain, x)
	return nil
}

// HeatBathX is HeatBath drawing from a value-type dist.Xoshiro stream —
// the variant the psample LOCAL harnesses run so their per-node updates
// make no *rand.Rand interface calls. Identical weights, identical walk: for equal
// uniforms the two variants update to the same symbol.
func HeatBathX(eng *gibbs.Compiled, l *state.Lattice, chain, v int, cond []float64, rng *dist.Xoshiro) error {
	if cum, last, ok := eng.CondLookupLattice(l, chain, v); ok {
		l.Set(v, chain, gibbs.CondDrawCum(cum, last, rng.Float64()))
		return nil
	}
	w, err := eng.CondWeightsLattice(l, chain, v, cond)
	if err != nil {
		return fmt.Errorf("glauber: conditional at %d: %w", v, err)
	}
	x, err := dist.SampleWeightsX(w, rng)
	if err != nil {
		return fmt.Errorf("glauber: conditional at %d: %w", v, err)
	}
	l.Set(v, chain, x)
	return nil
}

// Step performs one heat-bath update at a uniformly random free vertex.
func (c *Chain) Step(rng *rand.Rand) error {
	if len(c.free) == 0 {
		c.steps++
		return nil
	}
	v := c.free[rng.Intn(len(c.free))]
	if err := HeatBath(c.eng, c.state, 0, v, c.cond, rng); err != nil {
		return err
	}
	c.steps++
	return nil
}

// Run performs k single-site updates.
func (c *Chain) Run(k int, rng *rand.Rand) error {
	for i := 0; i < k; i++ {
		if err := c.Step(rng); err != nil {
			return err
		}
	}
	return nil
}

// Sample runs a fresh chain for the given number of sweeps (n single-site
// updates per sweep) and returns the final state — the standard approximate
// MCMC sampler.
func Sample(in *gibbs.Instance, sweeps int, rng *rand.Rand) (dist.Config, error) {
	c, err := New(in)
	if err != nil {
		return nil, err
	}
	if err := c.Run(sweeps*max(1, in.N()), rng); err != nil {
		return nil, err
	}
	return c.State(), nil
}

// MixingPoint is one measurement of empirical mixing: TV distance between
// the chain's marginal state distribution after `Sweeps` sweeps and the
// exact distribution.
type MixingPoint struct {
	Sweeps int
	TV     float64
}

// MeasureMixing estimates the TV distance between the chain's joint state
// distribution after each sweep budget and the exact distribution, using
// `trials` independent chains per budget (small instances only: needs the
// brute-force referee).
func MeasureMixing(in *gibbs.Instance, sweepBudgets []int, trials int, rng *rand.Rand) ([]MixingPoint, error) {
	truth, err := exact.JointDistribution(in)
	if err != nil {
		return nil, err
	}
	var out []MixingPoint
	for _, sweeps := range sweepBudgets {
		emp := dist.NewEmpirical(in.N())
		for i := 0; i < trials; i++ {
			cfg, err := Sample(in, sweeps, rng)
			if err != nil {
				return nil, err
			}
			emp.Observe(cfg)
		}
		got, err := emp.Joint()
		if err != nil {
			return nil, err
		}
		tv, err := dist.TVJoint(truth, got)
		if err != nil {
			return nil, err
		}
		out = append(out, MixingPoint{Sweeps: sweeps, TV: tv})
	}
	return out, nil
}
