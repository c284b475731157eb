package dist

// cdf.go: precomputed cumulative rows for repeated categorical draws —
// the batched-draw primitive of the LocalMetropolis engine. A proposal
// distribution is fixed per vertex for the lifetime of the rules, but
// Dist.Sample re-walks the density on every draw (a linear scan with a
// branch per symbol). Precomputing
// the running sums turns each draw into a scan over a monotone row with
// one compare per symbol and no accumulation in the loop, and lets one
// CDF serve a whole chain block back to back while the row is cache-hot.
//
// The draw is bit-identical to Dist.Sample for the same uniform: the
// cumulative row freezes exactly the accumulator sequence of sampleWalk
// (nonpositive entries add nothing and can never be hit first, because
// their cumulative value equals their predecessor's), and rounding slack
// falls to the recorded last positive symbol. The LocalMetropolis
// engine's golden B = 1 trajectories, first recorded from Dist.Sample
// draws, rest on this identity.

// CDF is the frozen cumulative form of a Dist. The zero value draws -1
// from an empty alphabet; build with NewCDF. Immutable after
// construction and safe for concurrent use by any number of readers.
type CDF struct {
	// cum[i] is the running sum of the positive weights at indices ≤ i.
	cum []float64
	// last is the last index with positive weight (-1 when none) — the
	// rounding-slack target of sampleWalk.
	last int
}

// NewCDF freezes the distribution's cumulative row.
func NewCDF(d Dist) CDF {
	c := CDF{cum: make([]float64, len(d)), last: -1}
	acc := 0.0
	for i, x := range d {
		if x > 0 {
			acc += x
			c.last = i
		}
		c.cum[i] = acc
	}
	return c
}

// K returns the alphabet size.
func (c *CDF) K() int { return len(c.cum) }

// SampleU returns the symbol of uniform u ∈ [0, 1): the first index whose
// cumulative weight exceeds u. Exactly sampleWalk(d, u): a nonpositive
// symbol shares its predecessor's cumulative value, so it can never be
// the first hit, and slack falls to the last positive symbol.
func (c *CDF) SampleU(u float64) int {
	for i, acc := range c.cum {
		if u < acc {
			return i
		}
	}
	return c.last
}

// Draw samples one symbol from a value-type Xoshiro stream.
func (c *CDF) Draw(rng *Xoshiro) int {
	return c.SampleU(rng.Float64())
}

// Fill8 draws len(dst) symbols back to back into a byte row — the
// batched proposal stage's primitive for 8-bit lattices. Each entry is
// exactly uint8(c.Draw(rng)): the caller owns the K ≤ 256 bound (and a
// nonempty support, so Draw never yields -1). A two-symbol alphabet
// whose upper symbol carries weight collapses to one branchless
// threshold compare per draw — u ≥ cum[0] is symbol 1 whether u lands in
// the upper mass or in the rounding slack above it, which is where
// SampleU's walk would fall through to last — skipping the walk and its
// per-symbol branch on the proposal coin.
func (c *CDF) Fill8(rng *Xoshiro, dst []uint8) {
	if len(c.cum) == 2 && c.last == 1 {
		t := c.cum[0]
		for i := range dst {
			var x uint8
			if rng.Float64() >= t {
				x = 1
			}
			dst[i] = x
		}
		return
	}
	for i := range dst {
		dst[i] = uint8(c.SampleU(rng.Float64()))
	}
}
