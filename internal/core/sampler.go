package core

import (
	"fmt"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/netdecomp"
	"repro/internal/slocal"
)

// SampleResult is the outcome of a sampling reduction.
type SampleResult struct {
	// Config is the sampled total configuration Y.
	Config dist.Config
	// Failed[v] is the local failure indicator F_v; conditioned on no
	// failures, Config follows the promised distribution.
	Failed []bool
	// Rounds is the LOCAL round complexity charged.
	Rounds int
	// SLOCALLocality is the locality of the underlying SLOCAL scan.
	SLOCALLocality int
}

// FailureCount returns the number of locally failed nodes.
func (r *SampleResult) FailureCount() int {
	c := 0
	for _, f := range r.Failed {
		if f {
			c++
		}
	}
	return c
}

// SequentialSample implements the SLOCAL sampler in the proof of Theorem
// 3.2: scanning the free vertices in the given order, it samples each
// vertex from the oracle's estimate of the conditional marginal given all
// previously fixed values (and the instance pinning), with per-vertex
// additive error delta/n. A coupling argument gives total variation error
// at most delta for the joint output, for every ordering.
//
// The returned locality is the maximum oracle radius used, which is the
// SLOCAL locality of the scan.
func SequentialSample(in *gibbs.Instance, o Oracle, order []int, delta float64, rng *rand.Rand) (dist.Config, int, error) {
	if o == nil {
		return nil, 0, ErrNoOracle
	}
	n := in.N()
	if err := slocal.CheckOrder(n, order); err != nil {
		return nil, 0, err
	}
	if delta <= 0 {
		return nil, 0, fmt.Errorf("core: sampling error bound must be positive, got %v", delta)
	}
	perVertex := delta / float64(n)
	cur := in
	cfg := in.Pinned.Clone()
	maxRadius := 0
	for _, v := range order {
		if cfg[v] != dist.Unset {
			continue
		}
		mu, r, err := o.Marginal(cur, v, perVertex)
		if err != nil {
			return nil, 0, fmt.Errorf("core: sequential sample at %d: %w", v, err)
		}
		if err := oracleSanity(mu, in.Q()); err != nil {
			return nil, 0, err
		}
		if r > maxRadius {
			maxRadius = r
		}
		x := mu.Sample(rng)
		cfg[v] = x
		cur, err = cur.Pin(v, x)
		if err != nil {
			return nil, 0, err
		}
	}
	return cfg, maxRadius, nil
}

// seqSamplerSLOCAL wraps SequentialSample's per-vertex step as a one-pass
// slocal.Algorithm so that the simulation path through the SLOCAL machinery
// (locality enforcement, Lemma 4.4 accounting) is exercised end to end.
type seqSamplerSLOCAL struct {
	in       *gibbs.Instance
	o        Oracle
	perV     float64
	locality int
	cfg      dist.Config
	radius   int
}

var _ slocal.Algorithm = (*seqSamplerSLOCAL)(nil)

func (a *seqSamplerSLOCAL) Passes() int           { return 1 }
func (a *seqSamplerSLOCAL) Locality(_, _ int) int { return a.locality }
func (a *seqSamplerSLOCAL) Init(v int) any        { return a.in.Pinned[v] }
func (a *seqSamplerSLOCAL) Process(_ int, c *slocal.Ctx) error {
	v := c.Node()
	if a.cfg[v] != dist.Unset {
		c.Write(v, a.cfg[v])
		return nil
	}
	cur := a.in.PinAll(a.cfg)
	mu, r, err := a.o.Marginal(cur, v, a.perV)
	if err != nil {
		return err
	}
	if r > a.radius {
		a.radius = r
	}
	x := mu.Sample(c.RNG())
	a.cfg[v] = x
	c.Write(v, x)
	return nil
}

// SampleLOCAL implements Theorem 3.2 end to end: it builds the randomized
// (O(log n), O(log n)) network decomposition of the power graph G^(t+1)
// (with t the oracle radius for error delta/n), derives the chromatic
// scheduling order, and simulates the SLOCAL sequential sampler on that
// order. Nodes in clusters that violated the decomposition's promised
// bounds raise their local failure bits (the Lemma 3.1 failures F”_v);
// conditioned on no failure the output distribution is exactly that of the
// SLOCAL sampler on some ordering, hence within delta of the target.
func SampleLOCAL(in *gibbs.Instance, o Oracle, delta float64, rng *rand.Rand) (*SampleResult, error) {
	if o == nil {
		return nil, ErrNoOracle
	}
	n := in.N()
	// Probe the oracle radius at the accuracy the scan will use.
	probeV := 0
	if free := in.FreeVertices(); len(free) > 0 {
		probeV = free[0]
	}
	_, t, err := o.Marginal(in, probeV, delta/float64(n))
	if err != nil {
		return nil, fmt.Errorf("core: oracle probe: %w", err)
	}
	power := in.Spec.G.Power(t + 1)
	dec, err := netdecomp.BallCarving(power, netdecomp.Params{}, rng)
	if err != nil {
		return nil, err
	}
	order := dec.ScheduleOrder()
	alg := &seqSamplerSLOCAL{
		in:       in,
		o:        o,
		perV:     delta / float64(n),
		locality: maxLocality(in, t),
		cfg:      in.Pinned.Clone(),
	}
	if _, err := slocal.Run(in.Spec.G, alg, order, rng); err != nil {
		return nil, err
	}
	res := &SampleResult{
		Config:         alg.cfg,
		Failed:         append([]bool(nil), dec.Failed...),
		Rounds:         dec.SimulationRounds(t),
		SLOCALLocality: alg.locality,
	}
	return res, nil
}

// maxLocality bounds the SLOCAL read radius: the oracle radius t, but never
// more than the graph can offer.
func maxLocality(in *gibbs.Instance, t int) int {
	n := in.N()
	if t > n {
		return n
	}
	if t < 0 {
		return 0
	}
	return t
}

// InferenceFromSampling implements Theorem 3.4: given a LOCAL approximate
// sampler (here: any function returning a SampleResult), the marginal of v
// is reconstructed from the distribution of the sampler's output at v. The
// paper reconstructs µ̃_v exactly by enumerating the sampler's random bits
// within radius t; enumerating random bits is replaced here by Monte Carlo
// averaging over `runs` independent executions, which converges to the same
// µ̃_v (the substitution is recorded in README.md). The returned marginal
// carries error at most delta + ε₀ + statistical noise, where ε₀ bounds the
// sampler's failure mass.
func InferenceFromSampling(in *gibbs.Instance, sample func(*rand.Rand) (*SampleResult, error), v, runs int, rng *rand.Rand) (dist.Dist, error) {
	if runs <= 0 {
		return nil, fmt.Errorf("core: inference from sampling needs runs > 0")
	}
	counts := make([]float64, in.Q())
	for i := 0; i < runs; i++ {
		res, err := sample(rng)
		if err != nil {
			return nil, err
		}
		x := res.Config[v]
		if x < 0 || x >= in.Q() {
			return nil, fmt.Errorf("core: sampler produced symbol %d outside alphabet", x)
		}
		counts[x]++
	}
	return dist.FromWeights(counts)
}
