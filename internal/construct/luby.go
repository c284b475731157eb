// Package construct implements classic constructive LOCAL algorithms — the
// "construction" task of the paper's introduction (exhibit *a* feasible
// solution), against which distributed *sampling* is contrasted. Luby's
// maximal-independent-set algorithm is the canonical example: it
// constructs a feasible configuration of the hardcore model's support in
// O(log n) rounds w.h.p., but its output distribution is nothing like the
// hardcore measure — sampling genuinely requires the machinery of the
// paper (the package tests demonstrate the bias).
package construct

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/local"
)

// MISResult reports a maximal independent set construction.
type MISResult struct {
	// InSet[v] reports membership of v.
	InSet []bool
	// Rounds is the number of LOCAL rounds consumed.
	Rounds int
}

// Set returns the members of the MIS in increasing order.
func (r *MISResult) Set() []int {
	var out []int
	for v, in := range r.InSet {
		if in {
			out = append(out, v)
		}
	}
	return out
}

// ErrNotConverged indicates the round budget was exhausted (probability
// vanishing in n for the default budget) with the partial set not yet
// maximal.
var ErrNotConverged = errors.New("construct: Luby MIS did not converge")

// Beats reports whether the phase draw (draw, id) defeats the rival draw
// (rivalDraw, rivalID) in one phase of Luby's algorithm: the strictly
// larger draw wins, with exact ties broken toward the larger ID. A vertex
// joins the phase's independent set iff its draw beats every competing
// rival's — the per-phase selection rule reused verbatim by the
// LubyGlauber LOCAL harness (internal/psample); the in-process engine
// applies the same order to shifted integer keys.
func Beats(draw float64, id int, rivalDraw float64, rivalID int) bool {
	return draw > rivalDraw || (draw == rivalDraw && id > rivalID)
}

// lubyState is the per-node state of Luby's algorithm.
type lubyState struct {
	status int // 0 undecided, 1 in MIS, 2 out (dominated)
	draw   float64
	// liveNeighbors tracks the undecided neighbors.
	liveNeighbors map[int]bool
}

type lubyMsg struct {
	kind string // "draw", "joined", "out"
	val  float64
}

// LubyMIS runs Luby's algorithm on the network with genuine synchronous
// message passing (three rounds per phase: exchange random draws, announce
// joins, announce removals). The random draws come from per-node RNGs
// seeded from the given seed, preserving the LOCAL model's private
// randomness.
func LubyMIS(net *local.Network, seed int64, maxPhases int) (*MISResult, error) {
	n := net.G.N()
	if maxPhases <= 0 {
		maxPhases = 16 * (bitLen(n) + 1)
	}
	rngs := make([]*rand.Rand, n)
	for v := 0; v < n; v++ {
		// One SplitMix64-derived stream per node: raw seed^v*K seeding
		// feeds correlated values into math/rand, and Luby's convergence
		// argument needs independent per-node coins.
		rngs[v] = dist.SeedStream(seed, int64(v))
	}
	init := func(v int) any {
		st := &lubyState{liveNeighbors: make(map[int]bool)}
		for _, u := range net.G.Neighbors(v) {
			st.liveNeighbors[u] = true
		}
		if len(st.liveNeighbors) == 0 {
			// Isolated vertices join immediately.
			st.status = 1
		}
		return st
	}
	step := func(v, round int, state any, inbox []local.Message) (any, []local.Message, bool) {
		st, ok := state.(*lubyState)
		if !ok {
			return state, nil, true
		}
		phaseStep := round % 3
		var out []local.Message
		switch phaseStep {
		case 0:
			// Exchange draws among undecided nodes.
			if st.status == 0 {
				st.draw = rngs[v].Float64()
				for u := range st.liveNeighbors {
					out = append(out, local.Message{From: v, To: u, Payload: lubyMsg{kind: "draw", val: st.draw}})
				}
			}
		case 1:
			// Join if the local draw beats every live neighbor's.
			if st.status == 0 {
				win := true
				for _, m := range inbox {
					msg, ok := m.Payload.(lubyMsg)
					if !ok || msg.kind != "draw" {
						continue
					}
					if Beats(msg.val, m.From, st.draw, v) {
						win = false
					}
				}
				if win {
					st.status = 1
					for u := range st.liveNeighbors {
						out = append(out, local.Message{From: v, To: u, Payload: lubyMsg{kind: "joined"}})
					}
				}
			}
		case 2:
			// Nodes adjacent to a joiner leave; everyone prunes dead
			// neighbors.
			for _, m := range inbox {
				msg, ok := m.Payload.(lubyMsg)
				if !ok {
					continue
				}
				if msg.kind == "joined" && st.status == 0 {
					st.status = 2
				}
			}
			if st.status != 0 {
				for u := range st.liveNeighbors {
					out = append(out, local.Message{From: v, To: u, Payload: lubyMsg{kind: "out"}})
				}
				// Deliver the departure notice, then halt next phase.
			}
		}
		// Prune neighbors that announced departure.
		for _, m := range inbox {
			if msg, ok := m.Payload.(lubyMsg); ok && msg.kind == "out" {
				delete(st.liveNeighbors, m.From)
			}
		}
		halt := st.status != 0 && phaseStep == 2
		return st, out, halt
	}
	res, err := net.Run(3*maxPhases, init, step)
	if err != nil && !errors.Is(err, local.ErrMaxRounds) {
		return nil, err
	}
	status := make([]int, n)
	for v := 0; v < n; v++ {
		st, ok := res.States[v].(*lubyState)
		if !ok {
			return nil, fmt.Errorf("construct: bad state at %d", v)
		}
		status[v] = st.status
	}
	return finalize(net.G, status, res.Rounds)
}

// finalize classifies the per-node Luby statuses into an MIS result. A node
// still undecided when the round budget ran out is harmless as long as it is
// dominated by a joined neighbor (the set is already maximal, only the
// departure bookkeeping was cut off); round-budget exhaustion is an error
// only when some undecided node is genuinely undominated, i.e. the set is
// not maximal.
func finalize(g *graph.Graph, status []int, rounds int) (*MISResult, error) {
	out := &MISResult{InSet: make([]bool, len(status)), Rounds: rounds}
	for v, s := range status {
		out.InSet[v] = s == 1
	}
	for v, s := range status {
		if s != 0 {
			continue
		}
		dominated := false
		for _, u := range g.Neighbors(v) {
			if out.InSet[u] {
				dominated = true
				break
			}
		}
		if !dominated {
			return nil, fmt.Errorf("%w: node %d undecided and undominated after %d rounds", ErrNotConverged, v, rounds)
		}
	}
	return out, nil
}

// Verify checks that the result is an independent dominating set (i.e. a
// maximal independent set) of g.
func Verify(g *graph.Graph, r *MISResult) error {
	if len(r.InSet) != g.N() {
		return fmt.Errorf("construct: result size %d != n %d", len(r.InSet), g.N())
	}
	for _, e := range g.Edges() {
		if r.InSet[e.U] && r.InSet[e.V] {
			return fmt.Errorf("construct: edge (%d,%d) inside the set", e.U, e.V)
		}
	}
	for v := 0; v < g.N(); v++ {
		if r.InSet[v] {
			continue
		}
		dominated := false
		for _, u := range g.Neighbors(v) {
			if r.InSet[u] {
				dominated = true
				break
			}
		}
		if !dominated {
			return fmt.Errorf("construct: vertex %d neither in the set nor dominated", v)
		}
	}
	return nil
}

func bitLen(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}
