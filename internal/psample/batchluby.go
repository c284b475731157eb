package psample

// batchluby.go is the LubyGlauber engine: B independent chains of the
// paper's interleaved construct-and-sample dynamics advanced in lockstep
// over one chain-major state.Lattice. Each round has two stages, batched
// across the chain dimension:
//
//  1. every free vertex draws one phase value per chain — a contiguous
//     row of the chain-major draw matrix per (vertex, chain group) item;
//  2. every free vertex computes the subset of its chains in which it
//     wins the Luby phase and heat-baths exactly those chains through the
//     heat-bath kernel bound by gibbs.Compiled.BindVertexSubset — plan
//     walk and weight rows amortized across the winning chains, one
//     uniform per winner, symbols written straight into the lattice.
//
// The phase check is the engine's own hot loop, so the draw matrix
// stores each phase value as the shifted 53-bit key (Uint64()>>11)<<1
// rather than a float. The map is an order isomorphism onto the float
// draws Float64 would derive from the same raw word (same 53 bits, same
// ties), and the free low bit absorbs the vertex-order tiebreak: rival u
// beats v exactly when keyU|bit > keyV, where bit — precomputed per rival
// in Rules.rivBit — is 1 iff u > v. That turns the full construct.Beats
// order into one branchless unsigned compare, so the common case (at most
// four free rivals, Rules.riv padded with an all-zero sentinel row that
// never wins) runs as a single fused pass per (vertex, chain group): four
// compares, no mask buffer, winners compacted in place with a branch-free
// index bump. Vertices with more than four free rivals take a rival-major
// sweep over Rules.freeAdj with the same key compare. A naive chain-major
// phase check — re-deriving the rival set, re-testing pinning, and taking
// an unpredictable branch per rival per chain — was measured to dominate
// the whole round.
//
// The fused pass pays a set-up per item that wide rows amortize (four
// rival row slices, the bitmask word loop), so a row holding one chain
// (every row at B = 1, the last chain group of a ragged B) applies the
// same four padded compares to its one key directly, and a lone winner
// is drawn by the heat-bath kernel's scalar one-chain path. The choice
// depends only on the row length, and every path computes the same
// winners and draws, so trajectories do not depend on it.
//
// Correctness is the LubyGlauber argument applied per chain: within any
// chain the winners form an independent set, so the simultaneous subset
// updates share no factor and the round restricted to that chain is a
// product of ordinary heat-bath kernels; across chains there is no
// interaction at all. The work grid enumerates chain groups outermost,
// as in every engine over the lockstep core, so a worker's contiguous item
// range covers contiguous chain columns and each column stays with one
// worker and its RNG stream.
//
// With one worker the RNG stream is consumed in a fixed order: one raw
// word per (free vertex, chain) in group-major, increasing-vertex order,
// then one heat-bath uniform per winner in the same order. The B = 1
// golden trajectories in batch_test.go pin that order symbol for symbol.

import "math/bits"

// BatchLubyGlauber advances B independent LubyGlauber chains in lockstep
// over one shared compiled engine.
type BatchLubyGlauber struct {
	lockstep
	// draws is the chain-major phase matrix: draws[v*B+c] is vertex v's
	// shifted 53-bit phase key in chain c this round. Row n (one past the
	// vertices) is the all-zero sentinel the padded rival plan points at —
	// stages never write it, and zero never beats a real key.
	draws []uint64
}

// NewBatchLubyGlauber returns a batched engine of the given number of
// chains, every chain started from the greedy feasible completion of the
// instance pinning, with per-worker RNG streams derived from seed. A
// nonpositive chain count surfaces as the state container's typed
// *state.DomainError.
func NewBatchLubyGlauber(r *Rules, chains int, seed int64) (*BatchLubyGlauber, error) {
	s := &BatchLubyGlauber{lockstep: lockstep{rules: r, chains: chains}}
	if err := s.Reset(seed); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset restarts every chain from the greedy start with fresh RNG streams.
func (s *BatchLubyGlauber) Reset(seed int64) error {
	if err := s.reset(seed); err != nil {
		return err
	}
	if n := (s.rules.n + 1) * s.chains; len(s.draws) < n {
		s.draws = make([]uint64, n)
	}
	return nil
}

// Updates returns the total number of heat-bath updates performed across
// all chains (the sum of the per-chain independent-set sizes over all
// rounds).
func (s *BatchLubyGlauber) Updates() int64 { return s.count }

// Run executes the given number of rounds on the worker pool. Both stages
// statically partition the (vertex, chain-group) item grid with groups
// outermost, so each worker owns contiguous chain columns. A negative
// count is an error and changes nothing.
func (s *BatchLubyGlauber) Run(rounds int) error {
	if ok, err := s.begin(rounds, s.bind); !ok {
		return err
	}
	cb, groups := s.groups()
	items := len(s.rules.freeList) * groups
	workers := s.pool(items*cb, items, cb)
	return s.runStages(rounds, workers, s.bindStages)
}

// bindStages builds the phase-draw and winner-update stages for the given
// worker count.
func (s *BatchLubyGlauber) bindStages(workers int) []func(w, round int) error {
	r := s.rules
	free := r.freeList
	B := s.chains
	cb, groups := s.groups()
	nfree := len(free)
	items := nfree * groups
	sample := s.sample
	draws := s.draws
	return []func(w, round int) error{
		func(w, round int) error {
			lo, hi := BlockOf(items, workers, w)
			rng := &s.slots[w].rng
			if groups == 1 && nfree == r.n {
				// Fully unpinned, single chain group: the worker's rows
				// form one contiguous region, filled in the same
				// (vertex, chain) order as the general walk below.
				row := draws[lo*B : hi*B]
				for i := range row {
					row[i] = rng.Uint64() >> 11 << 1
				}
				return nil
			}
			g := lo / nfree
			k := lo - g*nfree
			for it := lo; it < hi; it++ {
				v := free[k]
				c0 := g * cb
				row := draws[v*B+c0 : v*B+min(c0+cb, B)]
				for i := range row {
					row[i] = rng.Uint64() >> 11 << 1
				}
				if k++; k == nfree {
					k = 0
					g++
				}
			}
			return nil
		},
		func(w, round int) error {
			lo, hi := BlockOf(items, workers, w)
			sl := &s.slots[w]
			g := lo / nfree
			k := lo - g*nfree
			for it := lo; it < hi; it++ {
				v := free[k]
				c0 := g * cb
				c1 := min(c0+cb, B)
				if k++; k == nfree {
					k = 0
					g++
				}
				rowv := draws[v*B+c0 : v*B+c1]
				var win []int32
				adj := r.freeAdj[v]
				switch {
				case len(adj) <= 4 && len(rowv) == 1:
					// One-chain row: the padded-rival compare on one key,
					// with no row slicing and no winner bitmask.
					rv := r.riv[4*v : 4*v+4]
					bb := r.rivBit[4*v : 4*v+4]
					dv := rowv[0]
					lost := ((dv - (draws[int(rv[0])*B+c0] | bb[0])) |
						(dv - (draws[int(rv[1])*B+c0] | bb[1])) |
						(dv - (draws[int(rv[2])*B+c0] | bb[2])) |
						(dv - (draws[int(rv[3])*B+c0] | bb[3]))) >> 63
					if lost != 0 {
						continue
					}
					win = append(sl.list[:0], int32(c0))
				case len(adj) <= 4:
					// Fused padded-rival pass: four branchless key
					// compares per chain, winners compacted in place.
					rv := r.riv[4*v : 4*v+4]
					bb := r.rivBit[4*v : 4*v+4]
					o0 := int(rv[0])*B + c0
					o1 := int(rv[1])*B + c0
					o2 := int(rv[2])*B + c0
					o3 := int(rv[3])*B + c0
					r0 := draws[o0 : o0+len(rowv)]
					r1 := draws[o1 : o1+len(rowv)]
					r2 := draws[o2 : o2+len(rowv)]
					r3 := draws[o3 : o3+len(rowv)]
					b0, b1, b2, b3 := bb[0], bb[1], bb[2], bb[3]
					win = sl.list[:len(rowv)]
					idx := 0
					for base := 0; base < len(rowv); base += 64 {
						end := min(base+64, len(rowv))
						// Keys are 54-bit, so dv − key keeps bit 63 clear
						// exactly when dv survives that rival (a
						// compare-and-branch would mispredict on the ~even
						// phase outcomes). The word loop keeps the pass
						// pure ALU — winners land in a bitmask, and only
						// the ~1/(deg+1) survivors pay the indexed store.
						var m uint64
						for i := base; i < end; i++ {
							dv := rowv[i]
							won := ^((dv - (r0[i] | b0)) |
								(dv - (r1[i] | b1)) |
								(dv - (r2[i] | b2)) |
								(dv - (r3[i] | b3))) >> 63
							m |= won << (i - base)
						}
						for m != 0 {
							i := bits.TrailingZeros64(m)
							m &= m - 1
							win[idx] = int32(c0 + base + i)
							idx++
						}
					}
					win = win[:idx]
				default:
					// High-degree fallback (any row length): rival-major
					// row sweep with the same shifted-key compare.
					won := sl.mask[:len(rowv)]
					for i := range won {
						won[i] = 1
					}
					for _, u := range adj {
						var bit uint64
						if int(u) > v {
							bit = 1
						}
						rowu := draws[int(u)*B+c0:]
						for i, dv := range rowv {
							won[i] &^= uint8((dv - (rowu[i] | bit)) >> 63)
						}
					}
					win = sl.list[:0]
					for i, ok := range won {
						if ok != 0 {
							win = append(win, int32(c0+i))
						}
					}
				}
				if len(win) == 0 {
					continue
				}
				if err := sample(v, win, sl.buf, sl.sc, &sl.rng); err != nil {
					return err
				}
				sl.count += int64(len(win))
			}
			return nil
		},
	}
}
