// Package glauber implements single-site Glauber dynamics (heat-bath
// updates) for Gibbs distributions — the classical sequential MCMC sampler
// that the paper's distributed samplers are measured against. Glauber
// dynamics is the natural baseline: it is inherently sequential
// (Θ(n log n) single-site updates even when rapidly mixing, and each update
// conditions on the current global state), whereas the paper's point is
// that in the uniqueness regime the same distributions admit O(polylog n)
// *round* samplers with exact output.
//
// The chain owns one dist.Xoshiro stream and updates through the fused
// kernel of the batched engines (gibbs.Compiled.BindVertexSubset) at the
// one-chain list {0}: the same plan walk, conditional-CDF cache and draw as
// every other dynamic, so its heat-bath step is dist.SampleWeights on
// gibbs.Compiled.CondWeights symbol for symbol.
package glauber

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/state"
)

// chain0 is the one-chain list every update passes to the bound kernel.
var chain0 = []int32{0}

// Chain is a Glauber dynamics chain over a Gibbs instance: pinned vertices
// never move; free vertices are resampled from their exact conditional
// marginal given the rest of the current state. The configuration lives in
// a single-chain state.Lattice and each update performs no heap
// allocation. A Chain implements sampler.Sampler, counting one single-site
// update as one round.
type Chain struct {
	in     *gibbs.Instance
	state  *state.Lattice
	kernel gibbs.VertexSubsetFn
	free   []int
	rng    dist.Xoshiro
	rounds int
	// buf and sc are the kernel's weight row and scratch.
	buf []float64
	sc  *gibbs.BatchScratch
}

// New returns a chain started from the greedy feasible completion of the
// instance pinning (for locally admissible distributions this always
// exists), drawing from stream 0 of seed.
func New(in *gibbs.Instance, seed int64) (*Chain, error) {
	lat, err := state.New(in.N(), 1, in.Q())
	if err != nil {
		return nil, err
	}
	c := &Chain{
		in:    in,
		state: lat,
		free:  in.FreeVertices(),
		buf:   make([]float64, in.Q()),
		sc:    gibbs.NewBatchScratch(1),
	}
	if err := c.Reset(seed); err != nil {
		return nil, err
	}
	// The start assigns every vertex and Reset rewrites the cells in
	// place, so one binding serves the chain's whole life.
	if c.kernel, err = in.Spec.Compiled().BindVertexSubset(lat); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset restarts the chain from the canonical start of the instance
// (gibbs.Instance.Start, the greedy feasible completion of the pinning,
// which the instance builds once and every dynamic shares) with a fresh
// stream derived from seed, and zeroes the round counter. It allocates
// nothing once the instance's start is built.
func (c *Chain) Reset(seed int64) error {
	start, err := c.in.Start()
	if err != nil {
		return err
	}
	if err := c.state.Broadcast(start); err != nil {
		return err
	}
	c.rng = dist.NewXoshiro(seed, 0)
	c.rounds = 0
	return nil
}

// State returns a copy of the current configuration.
func (c *Chain) State() dist.Config { return c.state.Chain(0) }

// Rounds returns the number of single-site updates performed since
// construction or the last Reset.
func (c *Chain) Rounds() int { return c.rounds }

// Step performs one heat-bath update at a uniformly random free vertex.
func (c *Chain) Step() error {
	if len(c.free) > 0 {
		v := c.free[c.rng.IntN(len(c.free))]
		if err := c.kernel(v, chain0, c.buf, c.sc, &c.rng); err != nil {
			return err
		}
	}
	c.rounds++
	return nil
}

// Run performs the given number of single-site updates. A negative count
// is an error and changes nothing.
func (c *Chain) Run(rounds int) error {
	if rounds < 0 {
		return fmt.Errorf("glauber: negative round count %d", rounds)
	}
	for i := 0; i < rounds; i++ {
		if err := c.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Sample runs a fresh chain for the given number of sweeps (n single-site
// updates per sweep) and returns the final state — the standard approximate
// MCMC sampler.
func Sample(in *gibbs.Instance, sweeps int, seed int64) (dist.Config, error) {
	c, err := New(in, seed)
	if err != nil {
		return nil, err
	}
	if err := c.Run(sweeps * max(1, in.N())); err != nil {
		return nil, err
	}
	return c.State(), nil
}
