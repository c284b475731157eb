package psample

// batchmetropolis.go is the LocalMetropolis engine: B independent chains
// of the paper's fully-parallel proposal dynamics over two chain-major
// state lattices (current and proposal). Each round has three stages,
// batched across chains:
//
//  1. proposal draws — each free vertex fills its contiguous proposal
//     row for a chain group from its precomputed cumulative proposal row
//     (dist.CDF.Fill8 on byte lattices — branchless for two-symbol
//     alphabets — and the generic walk on wide ones, both bit-identical
//     to the Dist walk);
//  2. filter coins — each acceptance factor evaluates its subset-product
//     weight for a run of chain columns in one batched pass
//     (gibbs.Compiled.FilterWeightBatch: mixed-radix bases and table rows
//     amortized across the run), flips one coin per chain, and ANDs the
//     verdict into the adoption-mask row of every vertex it toggles;
//  3. adoption — each free vertex applies its contiguous adoption-mask
//     row as a write mask between the two chain-major rows, resetting
//     the mask to all-ones for the next round in the same pass.
//
// The adoption mask replaces a per-factor verdict matrix: stage 3 used
// to gather deg(v) scattered verdict bytes per (vertex, chain), which
// profiled as the round's largest single cost. ANDing verdicts into
// per-vertex rows as they are produced makes every stage-3 access
// contiguous. The AND makes stage-2 writes overlap per vertex, so stage
// 2 partitions work by chain columns — each worker owns a contiguous
// column range across all factors — instead of by (factor, group) items;
// mask rows are then worker-disjoint byte ranges.
//
// Pinned vertices never change: both lattices start from the canonical
// greedy completion at Reset, so pinned proposal cells are pre-filled
// once and no stage revisits them (their mask rows stay all-ones,
// untouched). Correctness is the LocalMetropolis argument per chain (the
// filter coins of a chain are independent across factors, and the
// adoption predicate of a chain reads only that chain's coins); across
// chains there is no interaction at all.
//
// With one worker the RNG stream is consumed in a fixed order: one
// proposal draw per (free vertex, chain) in group-major, increasing-vertex
// order, then one coin per (acceptance factor, chain) in factor order
// within each chain group. At B = 1 that is one proposal per free vertex
// and one coin per factor; the B = 1 golden trajectories in batch_test.go
// pin it symbol for symbol.

import (
	"errors"

	"repro/internal/dist"
	"repro/internal/state"
)

// BatchLocalMetropolis advances B independent LocalMetropolis chains in
// lockstep over one shared compiled engine.
type BatchLocalMetropolis struct {
	lockstep
	// prop is the chain-major proposal lattice next to the core's current
	// one.
	prop *state.Lattice
	// mask is the chain-major adoption mask: mask[v*B+c] is 1 while every
	// filter coin seen so far this round accepts chain c's proposal at v.
	// Stage 2 ANDs each factor's verdicts into the rows of the vertices
	// it toggles; stage 3 applies each free vertex's row as a write mask
	// and resets it to all-ones in the same pass. Rows of pinned vertices
	// are never touched after Reset.
	mask []uint8
}

// NewBatchLocalMetropolis returns a batched engine of the given number of
// chains, every chain started from the greedy feasible completion of the
// instance pinning, with per-worker RNG streams derived from seed. It
// fails if the instance does not support the filter (closure-backed
// acceptance factors); a nonpositive chain count surfaces as the state
// container's typed *state.DomainError.
func NewBatchLocalMetropolis(r *Rules, chains int, seed int64) (*BatchLocalMetropolis, error) {
	if err := r.MetropolisReady(); err != nil {
		return nil, err
	}
	s := &BatchLocalMetropolis{lockstep: lockstep{rules: r, chains: chains}}
	if err := s.Reset(seed); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset restarts every chain from the greedy start with fresh RNG
// streams. Both lattices are refilled from the same start, which
// pre-fills the pinned proposal cells once: stage 1 only ever rewrites
// free cells.
func (s *BatchLocalMetropolis) Reset(seed int64) error {
	if err := s.reset(seed); err != nil {
		return err
	}
	prop, err := s.rules.ResetLattice(s.prop, s.chains)
	if err != nil {
		return err
	}
	s.prop = prop
	if n := s.rules.n * s.chains; len(s.mask) < n {
		s.mask = make([]uint8, n)
	}
	for i := range s.mask {
		s.mask[i] = 1
	}
	return nil
}

// Accepts returns the total number of adopted proposals across all
// chains and rounds (proposals equal to the current value count as
// adopted).
func (s *BatchLocalMetropolis) Accepts() int64 { return s.count }

// preflight is the engine's own lattice preflight: both lattices are
// scanned once per Reset and must share one cell representation. It
// binds no heat-bath kernel — LocalMetropolis never draws from one, so it
// skips the plan and cond-cache build that binding implies.
func (s *BatchLocalMetropolis) preflight() error {
	if err := s.lat.CheckAssigned(); err != nil {
		return err
	}
	if err := s.prop.CheckAssigned(); err != nil {
		return err
	}
	if s.lat.Compact() != s.prop.Compact() {
		return errors.New("psample: batch lattices have mixed cell representations")
	}
	return nil
}

// proposeItems is the width-specialized stage-1 body for one (vertex,
// chain group) item: fill v's proposal row for the group from its frozen
// cumulative proposal row.
func proposeItems[T state.Cells](cells []T, B int, cdf *dist.CDF, v, c0, c1 int, rng *dist.Xoshiro) {
	row := cells[v*B+c0 : v*B+c1]
	for i := range row {
		row[i] = T(cdf.Draw(rng))
	}
}

// adoptItems is the width-specialized stage-3 body for one (vertex, chain
// group) item: apply v's adoption-mask row as a write mask between the
// proposal and current rows, reset the mask row to all-ones for the next
// round, and return the number of adoptions. The accept/reject pattern
// of a chain is a coin flip, so a branch per (vertex, chain) would
// mispredict half the time — the mask byte becomes an XOR write mask
// instead.
func adoptItems[T state.Cells](latC, propC []T, B int, mask []uint8, v, c0, c1 int) int64 {
	dst := latC[v*B+c0 : v*B+c1]
	src := propC[v*B+c0 : v*B+c0+(c1-c0)]
	mrow := mask[v*B+c0 : v*B+c0+(c1-c0)]
	n := int64(0)
	for i := range dst {
		ok := mrow[i]
		mrow[i] = 1
		m := -T(ok)
		d := dst[i]
		dst[i] = d ^ ((d ^ src[i]) & m)
		n += int64(ok)
	}
	return n
}

// Run executes the given number of rounds on the worker pool. Stages 1
// and 3 statically partition the (vertex, chain group) item grid with
// groups outermost; stage 2 partitions chain columns directly (all
// factors per column range) so its adoption-mask writes stay
// worker-disjoint. Either way each worker owns contiguous chain columns.
// A negative count is an error and changes nothing.
func (s *BatchLocalMetropolis) Run(rounds int) error {
	if ok, err := s.begin(rounds, s.preflight); !ok {
		return err
	}
	cb, groups := s.groups()
	vItems := len(s.rules.freeList) * groups
	fItems := len(s.rules.acc) * groups
	workers := s.pool(max(vItems, fItems)*cb, vItems, cb)
	return s.runStages(rounds, workers, s.bindStages)
}

// bindStages builds the proposal, filter and adoption stages for the
// given worker count.
func (s *BatchLocalMetropolis) bindStages(workers int) []func(w, round int) error {
	r := s.rules
	free := r.freeList
	lat8, prop8 := s.lat.Raw8(), s.prop.Raw8()
	latW, propW := s.lat.RawWide(), s.prop.RawWide()
	B := s.chains
	cb, groups := s.groups()
	nfree := len(free)
	nacc := len(r.acc)
	vItems := nfree * groups
	eng := r.eng
	return []func(w, round int) error{
		func(w, round int) error {
			lo, hi := BlockOf(vItems, workers, w)
			rng := &s.slots[w].rng
			for it := lo; it < hi; it++ {
				v := free[it%nfree]
				c0 := (it / nfree) * cb
				c1 := min(c0+cb, B)
				cdf := &r.propCDF[v]
				if prop8 != nil {
					cdf.Fill8(rng, prop8[v*B+c0:v*B+c1])
				} else {
					proposeItems(propW, B, cdf, v, c0, c1, rng)
				}
			}
			return nil
		},
		func(w, round int) error {
			// Column partition: this worker owns chain columns [b0, b1)
			// across every acceptance factor, chunked at chain-group
			// boundaries so the weight buffer and scratch stay within cb.
			// Mask-row writes of distinct workers are disjoint byte
			// ranges. At one worker the coin order is (group, factor,
			// chain).
			sl := &s.slots[w]
			mask := s.mask
			b0, b1 := BlockOf(B, workers, w)
			for cc0 := b0; cc0 < b1; {
				cc1 := min((cc0/cb+1)*cb, b1)
				nb := cc1 - cc0
				for j := 0; j < nacc; j++ {
					af := &r.acc[j]
					if err := eng.FilterWeightBatch(af.fi, s.lat, s.prop, cc0, cc1, af.verts, sl.buf, sl.sc); err != nil {
						return err
					}
					ok := sl.mask[:nb]
					scale := af.scale
					for i := range ok {
						var o uint8
						if sl.rng.Float64() < sl.buf[i]*scale {
							o = 1
						}
						ok[i] = o
					}
					for _, d := range af.verts {
						row := mask[d*B+cc0 : d*B+cc1]
						for i := range row {
							row[i] &= ok[i]
						}
					}
				}
				cc0 = cc1
			}
			return nil
		},
		func(w, round int) error {
			lo, hi := BlockOf(vItems, workers, w)
			sl := &s.slots[w]
			for it := lo; it < hi; it++ {
				v := free[it%nfree]
				c0 := (it / nfree) * cb
				c1 := min(c0+cb, B)
				if lat8 != nil {
					sl.count += adoptItems(lat8, prop8, B, s.mask, v, c0, c1)
				} else {
					sl.count += adoptItems(latW, propW, B, s.mask, v, c0, c1)
				}
			}
			return nil
		},
	}
}
