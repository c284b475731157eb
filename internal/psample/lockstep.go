package psample

// lockstep.go is the core the three batched engines share
// (BatchChromaticGlauber, BatchLubyGlauber, BatchLocalMetropolis): B
// chains on one chain-major state.Lattice, started from the canonical
// start and advanced by whole rounds of barrier-separated stages on a
// static worker pool. The core owns one copy of every decision the
// engines have in common — the start lattice, the per-worker slots and
// their RNG streams, the worker-count rule, the lattice preflight, the
// binding of the stages (once per Reset and worker count), the progress
// counters and the MultiChain accessors — and each engine keeps only its
// stages and the state they need.
//
// The decisions that fix a trajectory live here too. Worker i draws from
// stream dist.NewXoshiro(seed, i); the streams are created lazily in
// worker order and dropped on Reset. The worker count is the SetWorkers
// override or DefaultWorkers of the engine's work, clamped to the engine's
// item count, so trajectories depend on (instance, seed, B, worker count).
// Items enumerate chain groups outermost, so a worker's contiguous item
// range covers contiguous chain columns and each column stays with one
// worker and its stream.

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/state"
)

// lockstep is the shared core of the batched engines.
type lockstep struct {
	rules *Rules
	// chains is B, the number of independent chains.
	chains int
	// lat is the chain-major state lattice: cell (v, c) is chain c at v.
	lat    *state.Lattice
	seed   int64
	rounds int
	// nworkers overrides the worker count when positive (SetWorkers).
	nworkers int
	// slots holds one slot per worker of the largest pool since Reset.
	slots []slot
	// ready records that the lattice passed the engine's preflight since
	// the last Reset: stages write only in-range symbols, so one scan per
	// Reset suffices.
	ready bool
	// sample is the heat-bath kernel bind binds to lat at the preflight of
	// the heat-bath engines.
	sample gibbs.VertexSubsetFn
	// count is the engine's progress counter (Updates or Accepts): the
	// slot counters of every Run that succeeded since Reset.
	count int64
	// stages are the engine's round stages, bound for staged workers at
	// the first Run since Reset and rebound when the worker count
	// changes, so a Run builds no closures.
	stages []func(w, round int) error
	staged int
}

// slot is one worker's mutable state, sized for chain groups of cb. The
// trailing pad takes it from 120 to 128 bytes, two whole 64-byte lines in
// the same allocation size class. Slot arrays of up to four workers (512
// bytes) start on a 128-byte boundary, so no two workers' slots share a
// line and one worker's per-draw writes to its rng and count never
// invalidate a neighbour's. Larger arrays start 8 bytes in, behind the
// allocator's header; the line two slots share there holds only the first
// one's pad.
type slot struct {
	rng dist.Xoshiro
	// buf is a weight buffer of cb·q entries.
	buf []float64
	sc  *gibbs.BatchScratch
	// mask is a cb-byte row: Luby phase survival, Metropolis filter
	// verdicts.
	mask []uint8
	// list is a chain list of capacity cb: the Luby winners.
	list []int32
	// count is the worker's share of the progress counter in the running
	// Run; it is zero between Runs.
	count int64
	_     [8]byte
}

// reset restarts every chain from the canonical start and drops the
// worker slots, so the next Run recreates the streams from seed.
func (l *lockstep) reset(seed int64) error {
	lat, err := l.rules.ResetLattice(l.lat, l.chains)
	if err != nil {
		return err
	}
	l.lat = lat
	l.seed = seed
	l.rounds = 0
	l.count = 0
	l.slots = l.slots[:0]
	l.ready = false
	l.sample = nil
	l.stages = nil
	return nil
}

// Chains returns B, the number of independent chains.
func (l *lockstep) Chains() int { return l.chains }

// Chain returns a copy of chain c's current configuration.
func (l *lockstep) Chain(c int) dist.Config { return l.lat.Chain(c) }

// State returns a copy of chain 0's configuration (the Sampler view).
func (l *lockstep) State() dist.Config { return l.lat.Chain(0) }

// Lattice exposes the underlying state container (read-only for callers:
// diagnostics such as the R̂ accumulator read it between runs).
func (l *lockstep) Lattice() *state.Lattice { return l.lat }

// Rounds returns the number of rounds executed since the last Reset.
func (l *lockstep) Rounds() int { return l.rounds }

// SetWorkers overrides the worker count (nonpositive restores the
// CPU-scaled default). Per-worker RNG streams mean trajectories depend on
// the worker count; callers wanting machine-independent reproducibility
// (the adaptive run driver) pin it.
func (l *lockstep) SetWorkers(w int) { l.nworkers = w }

// begin opens a Run of the given number of rounds. A negative count is an
// error and changes nothing. On a fully pinned instance a round is a
// no-op, so begin counts the rounds and reports false. Otherwise it runs
// the engine's lattice preflight once per Reset and reports true.
func (l *lockstep) begin(rounds int, preflight func() error) (bool, error) {
	if rounds < 0 {
		return false, fmt.Errorf("psample: negative round count %d", rounds)
	}
	if len(l.rules.freeList) == 0 {
		l.rounds += rounds
		return false, nil
	}
	if !l.ready {
		if err := preflight(); err != nil {
			return false, err
		}
		l.ready = true
	}
	return true, nil
}

// bind is the heat-bath engines' preflight: one CheckAssigned scan, which
// replaces the kernel's per-cell validity checks, and the heat-bath
// kernel bound to the lattice.
func (l *lockstep) bind() error {
	if err := l.lat.CheckAssigned(); err != nil {
		return err
	}
	fn, err := l.rules.eng.BindVertexSubset(l.lat)
	if err != nil {
		return err
	}
	l.sample = fn
	return nil
}

// groups returns the chain-group width cb and the number of groups. Chains
// are processed in groups of ChainBlock(q), so a weight buffer stays
// L1-resident while the per-vertex plan walk is still amortized across
// many chains.
func (l *lockstep) groups() (cb, groups int) {
	cb = min(l.chains, ChainBlock(l.rules.q))
	return cb, (l.chains + cb - 1) / cb
}

// pool returns the worker count of a Run whose stages do about work
// single-vertex updates over items work items — the SetWorkers override,
// or DefaultWorkers(work) — clamped to [1, items], and sizes one slot per
// worker for chain groups of cb.
func (l *lockstep) pool(work, items, cb int) int {
	w := l.nworkers
	if w <= 0 {
		w = DefaultWorkers(work)
	}
	w = max(min(w, items), 1)
	for len(l.slots) < w {
		l.slots = append(l.slots, slot{
			rng:  dist.NewXoshiro(l.seed, int64(len(l.slots))),
			buf:  make([]float64, cb*l.rules.q),
			sc:   gibbs.NewBatchScratch(cb),
			mask: make([]uint8, cb),
			list: make([]int32, 0, cb),
		})
	}
	return w
}

// runStages runs the given number of rounds of the engine's stages on
// the given number of workers and closes the Run. It binds the stages
// with bind at the first Run since Reset, when the slots, the preflight's
// kernel and the engine's buffers are settled, and again when the worker
// count changes.
func (l *lockstep) runStages(rounds, workers int, bind func(workers int) []func(w, round int) error) error {
	if l.stages == nil || l.staged != workers {
		l.stages, l.staged = bind(workers), workers
	}
	return l.end(rounds, RunRounds(workers, rounds, l.stages))
}

// end closes a Run with RunRounds' result. A failed Run zeroes the slot
// counters and moves no counter; a successful one counts its rounds and
// adds the slot counters to the progress counter.
func (l *lockstep) end(rounds int, err error) error {
	for i := range l.slots {
		if err == nil {
			l.count += l.slots[i].count
		}
		l.slots[i].count = 0
	}
	if err != nil {
		return err
	}
	l.rounds += rounds
	return nil
}
