package sampler

// batch.go is the ChromaticGlauber engine: B independent chains over one
// shared compiled engine, advanced in lockstep under the deterministic
// chromatic schedule. Where LubyGlauber randomizes its independent sets
// (one Luby phase per round, each vertex selected only with probability
// ≥ 1/(deg+1)), ChromaticGlauber fixes them up front: a proper coloring
// of the interaction graph, computed once, schedules at most Δ+1 stages
// per sweep in which every free vertex is heat-bathed exactly once. On
// the LOCAL model the coloring is node input
// (psample.ChromaticGlauberLOCAL), so a sweep costs χ rounds instead of
// one. B = 1 is the single-chain sampler.
//
// The configurations live in a state.Lattice (chain-major per vertex,
// cell (v,c) at vals[v*B+c], one byte per cell for every model this repo
// builds) so that updating one vertex across all chains touches
// contiguous memory and amortizes the per-vertex factor bookkeeping — the
// mixed-radix index computation and factor-table cache misses that
// dominate one-chain sweeps are paid once per vertex instead of once per
// chain, and the compact cells keep the whole B×n working set in cache at
// large B.
//
// The per-stage work runs through the heat-bath kernel every sampler
// shares (gibbs.Compiled.BindVertexSubset), bound to the lattice at the
// preflight: weights and the heat-bath draw in one pass over a flat
// per-vertex instruction stream (or one cond-cache lookup), a value-type
// dist.Xoshiro stream per worker, and lattice validity checked once per
// Reset (state.Lattice.CheckAssigned) instead of per cell — sampled
// symbols are always in range, so one preflight covers every subsequent
// stage. A (vertex, chain-group) item passes the kernel the slice
// [c0:c1] of one engine-owned ascending list {0, …, B−1}.
//
// The stage schedule is the cached psample.Rules.ClassSchedule: the
// interaction graph colored by natural-order greedy and by the degeneracy
// (smallest-last) order, keeping whichever uses fewer classes — fewer
// classes mean fewer barriers per sweep.
//
// Correctness: a stage updates one color class simultaneously in every
// chain. Within a chain the class is an independent set of the interaction
// graph, and factor scopes are cliques (enforced by psample.NewRules), so
// no two simultaneous updates share a factor and the stage is a product of
// ordinary heat-bath kernels — exactly the LubyGlauber argument with the
// random independent set replaced by a deterministic one. Across chains
// there is no interaction at all. Workers partition the stage's item grid
// chain-block-affine: items enumerate groups outermost, so a worker's
// contiguous item range covers contiguous chain columns across the whole
// class — each chain column stays with one worker (and its RNG stream)
// for locality now and the NUMA story later.

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/psample"
	"repro/internal/state"
)

// Batch advances B independent chains of ChromaticGlauber dynamics in
// lockstep over one shared gibbs.Compiled engine.
type Batch struct {
	// nworkers overrides the worker count when positive (SetWorkers;
	// default: one per CPU, bounded so per-stage blocks stay coarse).
	nworkers int

	rules *psample.Rules
	// chains is B, the number of independent chains.
	chains int
	// lat is the chain-major state lattice: cell (v, c) is chain c at v.
	lat *state.Lattice
	// all is the chain list {0, …, B−1}; a chain group is a slice of it.
	all []int32
	// classes is the cached chromatic stage schedule of the rules.
	classes [][]int
	sweeps  int
	updates int64
	workers []batchWorker
	seed    int64
	// sample is the heat-bath kernel bound to lat, nil until the lattice
	// passes its CheckAssigned preflight; stages write only in-range
	// symbols, so one scan and one binding per Reset suffice.
	sample gibbs.VertexSubsetFn
}

// batchWorker is the per-worker mutable state: a value-type RNG stream and
// the batched conditional-weight buffers.
type batchWorker struct {
	rng dist.Xoshiro
	buf []float64
	sc  *gibbs.BatchScratch
}

// NewBatch returns a batched engine of the given number of chains, every
// chain started from the greedy feasible completion of the instance
// pinning, with per-worker RNG streams derived from seed. The stage
// schedule is the rules' cached class schedule (at most min(Δ, d)+1
// barrier-separated stages per sweep), so constructing many batches over
// one Rules colors the graph once.
// A nonpositive chain count surfaces as the state container's typed
// *state.DomainError.
func NewBatch(r *psample.Rules, chains int, seed int64) (*Batch, error) {
	b := &Batch{
		rules:   r,
		chains:  chains,
		classes: r.ClassSchedule(),
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
func (b *Batch) Reset(seed int64) error {
	lat, err := b.rules.ResetLattice(b.lat, b.chains)
	if err != nil {
		return err
	}
	b.lat = lat
	b.seed = seed
	b.sweeps = 0
	b.updates = 0
	b.workers = b.workers[:0]
	b.sample = nil
	return nil
}

// Chains returns B, the number of independent chains.
func (b *Batch) Chains() int { return b.chains }

// Classes returns the stage schedule (free vertices grouped by greedy
// color). The slices alias engine state and must not be modified.
func (b *Batch) Classes() [][]int { return b.classes }

// Rounds returns the number of full sweeps executed since the last Reset.
func (b *Batch) Rounds() int { return b.sweeps }

// Updates returns the total number of single-site heat-bath updates
// executed across all chains since the last Reset (every scheduled update
// is unconditional — the chromatic schedule has no rejection, so this is
// the update-rate counter of the adaptive driver).
func (b *Batch) Updates() int64 { return b.updates }

// SetWorkers overrides the worker count (nonpositive restores the
// CPU-scaled default). Per-worker RNG streams mean trajectories depend on
// the worker count; callers wanting machine-independent reproducibility
// (the adaptive driver's determinism contract) pin it.
func (b *Batch) SetWorkers(w int) { b.nworkers = w }

// Chain returns a copy of chain c's current configuration.
func (b *Batch) Chain(c int) dist.Config {
	return b.lat.Chain(c)
}

// State returns a copy of chain 0's configuration (the Sampler view).
func (b *Batch) State() dist.Config { return b.lat.Chain(0) }

// Lattice exposes the underlying state container (read-only for callers:
// diagnostics such as the R̂ accumulator read it between runs).
func (b *Batch) Lattice() *state.Lattice { return b.lat }

// ensureWorkers sizes the per-worker state for w workers.
func (b *Batch) ensureWorkers(w, cb int) {
	for len(b.workers) < w {
		i := len(b.workers)
		b.workers = append(b.workers, batchWorker{
			rng: dist.NewXoshiro(b.seed, int64(i)),
			buf: make([]float64, cb*b.rules.Q()),
			sc:  gibbs.NewBatchScratch(cb),
		})
	}
}

// Run executes the given number of full sweeps; each sweep is one
// barrier-separated stage per color class, and each stage advances every
// chain at every vertex of the class through the bound heat-bath kernel.
// The worker pool statically partitions the stage's (chain-group, vertex)
// item grid with groups outermost, so each worker owns contiguous chain
// columns. A negative count is an error and changes nothing.
func (b *Batch) Run(sweeps int) error {
	if sweeps < 0 {
		return fmt.Errorf("sampler: negative sweep count %d", sweeps)
	}
	if len(b.classes) == 0 {
		// Fully pinned instance: a sweep is a no-op.
		b.sweeps += sweeps
		return nil
	}
	// One preflight scan replaces the per-cell validity checks of the
	// kernel: every symbol the stages write is in range, so the invariant
	// (and the binding) survives until the next Reset.
	if b.sample == nil {
		if err := b.lat.CheckAssigned(); err != nil {
			return err
		}
		fn, err := b.rules.Engine().BindVertexSubset(b.lat)
		if err != nil {
			return err
		}
		b.sample = fn
	}
	B := b.chains
	// Chains are processed in groups of psample.ChainBlock(q) so the
	// conditional-weight buffer stays L1-resident while still amortizing
	// the per-vertex plan walk across many chains.
	cb := min(B, psample.ChainBlock(b.rules.Q()))
	groups := (B + cb - 1) / cb
	maxItems := 0
	for _, class := range b.classes {
		maxItems = max(maxItems, len(class)*groups)
	}
	workers := b.nworkers
	if workers <= 0 {
		// Scale the worker heuristic by the scalar updates per item (one
		// chain group ≈ cb single-vertex updates).
		workers = psample.DefaultWorkers(maxItems * cb)
	}
	workers = max(min(workers, maxItems), 1)
	b.ensureWorkers(workers, cb)
	stages := make([]func(w, round int) error, len(b.classes))
	for k, class := range b.classes {
		nclass := len(class)
		items := nclass * groups
		stages[k] = func(w, round int) error {
			lo, hi := psample.BlockOf(items, workers, w)
			wk := &b.workers[w]
			for it := lo; it < hi; it++ {
				// Groups outermost: a contiguous item range is a run of
				// whole chain-column groups, so the worker (and its RNG
				// stream) owns those columns across every vertex of the
				// class.
				v := class[it%nclass]
				c0 := (it / nclass) * cb
				c1 := min(c0+cb, B)
				if err := b.sample(v, b.all[c0:c1], wk.buf, wk.sc, &wk.rng); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if err := psample.RunRounds(workers, sweeps, stages); err != nil {
		return err
	}
	b.sweeps += sweeps
	classTotal := 0
	for _, class := range b.classes {
		classTotal += len(class)
	}
	b.updates += int64(sweeps) * int64(classTotal) * int64(B)
	return nil
}
