package psample

// batchchromatic.go is the ChromaticGlauber engine: B independent chains
// over one shared compiled engine, advanced in lockstep under the
// deterministic chromatic schedule. Where LubyGlauber randomizes its
// independent sets (one Luby phase per round, each vertex selected only
// with probability ≥ 1/(deg+1)), ChromaticGlauber fixes them up front: a
// proper coloring of the interaction graph, computed once, schedules at
// most Δ+1 stages per sweep in which every free vertex is heat-bathed
// exactly once. On the LOCAL model the coloring is node input
// (ChromaticGlauberLOCAL), so a sweep costs χ rounds instead of one.
// B = 1 is the single-chain sampler.
//
// The configurations live in the core's state.Lattice (chain-major per
// vertex, cell (v,c) at vals[v*B+c], one byte per cell for every model
// this repo builds) so that updating one vertex across all chains touches
// contiguous memory and amortizes the per-vertex factor bookkeeping — the
// mixed-radix index computation and factor-table cache misses that
// dominate one-chain sweeps are paid once per vertex instead of once per
// chain, and the compact cells keep the whole B×n working set in cache at
// large B.
//
// The per-stage work runs through the heat-bath kernel every sampler
// shares (gibbs.Compiled.BindVertexSubset), bound to the lattice at the
// core's preflight: weights and the heat-bath draw in one pass over a
// flat per-vertex instruction stream (or one cond-cache lookup). A
// (vertex, chain-group) item passes the kernel the slice [c0:c1] of one
// engine-owned ascending list {0, …, B−1}.
//
// The stage schedule is the cached Rules.ClassSchedule: the interaction
// graph colored by natural-order greedy and by the degeneracy
// (smallest-last) order, keeping whichever uses fewer classes — fewer
// classes mean fewer barriers per sweep.
//
// Correctness: a stage updates one color class simultaneously in every
// chain. Within a chain the class is an independent set of the interaction
// graph, and factor scopes are cliques (enforced by RulesOf), so no two
// simultaneous updates share a factor and the stage is a product of
// ordinary heat-bath kernels — exactly the LubyGlauber argument with the
// random independent set replaced by a deterministic one. Across chains
// there is no interaction at all.

// BatchChromaticGlauber advances B independent chains of ChromaticGlauber
// dynamics in lockstep over one shared gibbs.Compiled engine.
type BatchChromaticGlauber struct {
	lockstep
	// classes is the cached chromatic stage schedule of the rules.
	classes [][]int
	// all is the chain list {0, …, B−1}; a chain group is a slice of it.
	all []int32
}

// NewBatchChromaticGlauber returns a batched engine of the given number of
// chains, every chain started from the greedy feasible completion of the
// instance pinning, with per-worker RNG streams derived from seed. The
// stage schedule is the rules' cached class schedule (at most
// min(Δ, d)+1 barrier-separated stages per sweep), so constructing many
// engines over one Rules colors the graph once. A nonpositive chain count
// surfaces as the state container's typed *state.DomainError.
func NewBatchChromaticGlauber(r *Rules, chains int, seed int64) (*BatchChromaticGlauber, error) {
	b := &BatchChromaticGlauber{
		lockstep: lockstep{rules: r, chains: chains},
		classes:  r.ClassSchedule(),
	}
	if err := b.Reset(seed); err != nil {
		return nil, err
	}
	b.all = make([]int32, chains)
	for c := range b.all {
		b.all[c] = int32(c)
	}
	return b, nil
}

// Reset restarts every chain from the greedy start with fresh RNG streams.
func (b *BatchChromaticGlauber) Reset(seed int64) error { return b.reset(seed) }

// Classes returns the stage schedule (free vertices grouped by greedy
// color). The slices alias engine state and must not be modified.
func (b *BatchChromaticGlauber) Classes() [][]int { return b.classes }

// Updates returns the total number of single-site heat-bath updates
// executed across all chains since the last Reset (every scheduled update
// is unconditional — the chromatic schedule has no rejection, so this is
// the update-rate counter of the adaptive driver).
func (b *BatchChromaticGlauber) Updates() int64 { return b.count }

// Run executes the given number of full sweeps; each sweep is one
// barrier-separated stage per color class, and each stage advances every
// chain at every vertex of the class through the bound heat-bath kernel,
// over the (chain-group, vertex) item grid of the class with groups
// outermost. A negative count is an error and changes nothing.
func (b *BatchChromaticGlauber) Run(sweeps int) error {
	if ok, err := b.begin(sweeps, b.bind); !ok {
		return err
	}
	cb, groups := b.groups()
	maxItems := 0
	for _, class := range b.classes {
		maxItems = max(maxItems, len(class)*groups)
	}
	workers := b.pool(maxItems*cb, maxItems, cb)
	return b.runStages(sweeps, workers, b.bindStages)
}

// bindStages builds one stage per color class for the given worker count.
func (b *BatchChromaticGlauber) bindStages(workers int) []func(w, round int) error {
	B := b.chains
	cb, groups := b.groups()
	stages := make([]func(w, round int) error, len(b.classes))
	for k, class := range b.classes {
		nclass := len(class)
		items := nclass * groups
		stages[k] = func(w, round int) error {
			lo, hi := BlockOf(items, workers, w)
			sl := &b.slots[w]
			for it := lo; it < hi; it++ {
				v := class[it%nclass]
				c0 := (it / nclass) * cb
				c1 := min(c0+cb, B)
				if err := b.sample(v, b.all[c0:c1], sl.buf, sl.sc, &sl.rng); err != nil {
					return err
				}
				sl.count += int64(c1 - c0)
			}
			return nil
		}
	}
	return stages
}
