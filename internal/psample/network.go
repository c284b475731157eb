package psample

// network.go runs the two samplers as genuine message-passing algorithms on
// the local.Network simulator, charging synchronous rounds the way the
// LOCAL model does. The harnesses run the model-faithful form of each
// update rule — construct.Beats for the Luby phase and Rules.Propose for
// the LocalMetropolis proposal — and every heat-bath update and filter
// evaluation goes through the fused kernels the in-process engines run,
// at one chain on the node's own view: for LubyGlauber the heat-bath
// kernel that gibbs.Compiled.BindVertexSubset binds once per node view,
// called at the list {0}; for LocalMetropolis FilterWeightBatch at
// (0, 1). The tests pin both harnesses to the same exact referee as the
// engines, and to golden outputs.
//
// The implementations pipeline one dynamics round per LOCAL round: the
// message a node sends in LOCAL round t carries its state after t dynamics
// rounds plus the randomness for round t+1, so R dynamics rounds cost
// exactly R+1 LOCAL rounds. Factor scopes are cliques of G (enforced by
// NewRules), so every quantity a node needs — neighbor spins, neighbor
// proposals, and the shared per-factor filter coin flipped by the
// factor's smallest scope vertex — arrives from direct neighbors.
//
// A node's view of the configuration is partial: a one-chain compact
// (uint8-cell) state.Lattice in which only the node and its neighbors are
// ever set. The kernels read exactly the cells of the updated vertex's
// factor scopes, so the view satisfies their contract — every cell read
// holds an in-range symbol — from the first update on, provided the
// network is the instance's interaction graph; networkFor rejects any
// other network. Node payloads carry spins as single bytes, so the
// harness requires q ≤ state.MaxCompactQ — far above any model this repo
// builds; the wide []int fallback is an in-process-engine concern only.

import (
	"fmt"

	"repro/internal/construct"
	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/local"
	"repro/internal/state"
)

// networkFor validates that the network is the rules' interaction graph
// — same nodes and same edges, so every factor-scope neighbor of a node
// sends it its spin — and returns the per-node RNGs (private randomness:
// one SplitMix64-seeded xoshiro256++ stream per node, the same value-type
// generator the in-process engines run, so no harness hand-rolls its own
// seed arithmetic).
func networkFor(net *local.Network, r *Rules, seed int64) ([]dist.Xoshiro, error) {
	if net.G.N() != r.n {
		return nil, fmt.Errorf("psample: network has %d nodes, instance has %d", net.G.N(), r.n)
	}
	if !net.G.Equal(r.in.Spec.G) {
		return nil, fmt.Errorf("psample: network edges differ from the instance's interaction graph")
	}
	if r.q > state.MaxCompactQ {
		return nil, &state.DomainError{N: r.n, Chains: 1, Q: r.q,
			Reason: fmt.Sprintf("the LOCAL harness transmits spins as bytes and needs q ≤ %d", state.MaxCompactQ)}
	}
	rngs := make([]dist.Xoshiro, r.n)
	for v := range rngs {
		rngs[v] = dist.NewXoshiro(seed, int64(v))
	}
	return rngs, nil
}

// chain0 is the one-chain list every LOCAL heat-bath update passes to the
// kernel bound to the node's view.
var chain0 = []int32{0}

// nodeView returns a node's all-Unset compact view of the configuration.
func nodeView(n, q int) (*state.Lattice, error) {
	return state.NewCompact(n, 1, q)
}

// lgNodeState is the per-node state of the LubyGlauber LOCAL harness.
type lgNodeState struct {
	val  uint8
	draw float64
	// cfg is the node's view of its closed neighborhood: the cell at u for
	// neighbors u is u's spin as of the previous round. sample is the
	// heat-bath kernel bound to it; cond and sc are the kernel's buffers.
	cfg    *state.Lattice
	sample gibbs.VertexSubsetFn
	cond   []float64
	sc     *gibbs.BatchScratch
	done   int
	// err records a failed update; the simulator has no error channel for
	// steps, so it is surfaced through the final state.
	err error
}

// lgMsg is the LubyGlauber round message: the sender's spin after the
// current round (one byte, the raw compact cell) and its draw for the next
// phase.
type lgMsg struct {
	val  uint8
	draw float64
}

// LubyGlauberLOCAL runs R rounds of LubyGlauber by message passing on the
// network (which must be the instance's interaction graph) and returns the
// final configuration together with the LOCAL rounds consumed (R+1: the
// harness pipelines one dynamics round per LOCAL round plus the initial
// exchange).
func LubyGlauberLOCAL(net *local.Network, r *Rules, R int, seed int64) (dist.Config, int, error) {
	rngs, err := networkFor(net, r, seed)
	if err != nil {
		return nil, 0, err
	}
	start, err := r.Start()
	if err != nil {
		return nil, 0, err
	}
	if R <= 0 {
		return start, 0, nil
	}
	g := net.G
	init := func(v int) any {
		view, err := nodeView(r.n, r.q)
		st := &lgNodeState{
			val:  uint8(start[v]),
			cfg:  view,
			cond: make([]float64, r.q),
			sc:   gibbs.NewBatchScratch(1),
		}
		if err == nil {
			st.sample, err = r.eng.BindVertexSubset(view)
		}
		if err != nil {
			st.err = err
			return st
		}
		st.cfg.Set(v, 0, int(st.val))
		return st
	}
	step := func(v, round int, nodeState any, inbox []local.Message) (any, []local.Message, bool) {
		st := nodeState.(*lgNodeState)
		if st.err != nil {
			return st, nil, true
		}
		if round > 0 {
			// Deliver neighbor spins and decide the phase drawn last round.
			win := r.free[v]
			for _, m := range inbox {
				msg := m.Payload.(lgMsg)
				st.cfg.Set(m.From, 0, int(msg.val))
				if win && r.free[m.From] && construct.Beats(msg.draw, m.From, st.draw, v) {
					win = false
				}
			}
			if win {
				st.cfg.Set(v, 0, int(st.val))
				if err := st.sample(v, chain0, st.cond, st.sc, &rngs[v]); err != nil {
					st.err = err
					return st, nil, true
				}
				st.val = uint8(st.cfg.Get(v, 0))
			}
			st.done++
			if st.done >= R {
				return st, nil, true
			}
		}
		if r.free[v] {
			st.draw = rngs[v].Float64()
		}
		out := make([]local.Message, 0, g.Degree(v))
		for _, u := range g.Neighbors(v) {
			out = append(out, local.Message{From: v, To: u, Payload: lgMsg{val: st.val, draw: st.draw}})
		}
		return st, out, false
	}
	res, err := net.Run(R+1, init, step)
	if err != nil {
		return nil, 0, err
	}
	out := dist.NewConfig(r.n)
	for v := 0; v < r.n; v++ {
		st := res.States[v].(*lgNodeState)
		if st.err != nil {
			return nil, 0, fmt.Errorf("psample: heat-bath update failed at node %d: %w", v, st.err)
		}
		out[v] = int(st.val)
	}
	return out, res.Rounds, nil
}

// lmCoin is one filter coin flipped by the owning (smallest toggled) vertex
// of acceptance factor j.
type lmCoin struct {
	j int
	u float64
}

// lmMsg is the LocalMetropolis round message: the sender's current spin and
// its proposal for the next round (single bytes, the raw compact cells),
// and the coins of the factors it owns.
type lmMsg struct {
	val   uint8
	prop  uint8
	coins []lmCoin
}

// lmNodeState is the per-node state of the LocalMetropolis LOCAL harness.
type lmNodeState struct {
	val   uint8
	prop  uint8
	coins []lmCoin
	// cfg and props are the node's views of its closed neighborhood:
	// spins as of the previous round and proposals for this round.
	cfg   *state.Lattice
	props *state.Lattice
	// coinAt[j] is the coin of acceptance factor j this round (only the
	// factors toggling this node are ever read).
	coinAt map[int]float64
	// filt and sc are the filter kernel's one-entry output and scratch.
	filt [1]float64
	sc   *gibbs.BatchScratch
	done int
	// err records a failed filter evaluation, surfaced after the run.
	err error
}

// LocalMetropolisLOCAL runs R rounds of LocalMetropolis by message passing
// on the network (which must be the instance's interaction graph) and
// returns the final configuration together with the LOCAL rounds consumed
// (R+1). Each acceptance factor's shared coin is flipped by its smallest
// toggled vertex and broadcast with that vertex's proposal; every scope
// vertex then evaluates the same deterministic filter predicate, so the
// factor's verdict is consistent across its clique without extra rounds.
func LocalMetropolisLOCAL(net *local.Network, r *Rules, R int, seed int64) (dist.Config, int, error) {
	if err := r.MetropolisReady(); err != nil {
		return nil, 0, err
	}
	rngs, err := networkFor(net, r, seed)
	if err != nil {
		return nil, 0, err
	}
	start, err := r.Start()
	if err != nil {
		return nil, 0, err
	}
	if R <= 0 {
		return start, 0, nil
	}
	// owner[j] is the vertex that flips acceptance factor j's coin.
	owner := make([]int, len(r.acc))
	owned := make([][]int, r.n)
	for j, af := range r.acc {
		o := af.verts[0]
		for _, v := range af.verts[1:] {
			if v < o {
				o = v
			}
		}
		owner[j] = o
		owned[o] = append(owned[o], j)
	}
	g := net.G
	init := func(v int) any {
		st := &lmNodeState{
			val:    uint8(start[v]),
			coinAt: make(map[int]float64, len(r.AccAt(v))),
			sc:     gibbs.NewBatchScratch(1),
		}
		var err error
		if st.cfg, err = nodeView(r.n, r.q); err != nil {
			st.err = err
			return st
		}
		if st.props, err = nodeView(r.n, r.q); err != nil {
			st.err = err
			return st
		}
		st.cfg.Set(v, 0, int(st.val))
		return st
	}
	step := func(v, round int, nodeState any, inbox []local.Message) (any, []local.Message, bool) {
		st := nodeState.(*lmNodeState)
		if st.err != nil {
			return st, nil, true
		}
		if round > 0 {
			for _, m := range inbox {
				msg := m.Payload.(lmMsg)
				st.cfg.Set(m.From, 0, int(msg.val))
				st.props.Set(m.From, 0, int(msg.prop))
				for _, c := range msg.coins {
					st.coinAt[c.j] = c.u
				}
			}
			st.cfg.Set(v, 0, int(st.val))
			st.props.Set(v, 0, int(st.prop))
			for _, c := range st.coins {
				st.coinAt[c.j] = c.u
			}
			if r.free[v] {
				accept := true
				for _, j := range r.AccAt(v) {
					af := &r.acc[j]
					if err := r.eng.FilterWeightBatch(af.fi, st.cfg, st.props, 0, 1, af.verts, st.filt[:], st.sc); err != nil {
						st.err = err
						return st, nil, true
					}
					if st.coinAt[int(j)] >= st.filt[0]*af.scale {
						accept = false
						break
					}
				}
				if accept {
					st.val = st.prop
				}
			}
			st.done++
			if st.done >= R {
				return st, nil, true
			}
		}
		// Draw next round's proposal and owned coins, then broadcast. The
		// coin slice must be fresh each round: the outgoing message aliases
		// it and is only read by neighbors during the next round.
		st.prop = uint8(r.Propose(v, &rngs[v]))
		st.coins = make([]lmCoin, 0, len(owned[v]))
		for _, j := range owned[v] {
			st.coins = append(st.coins, lmCoin{j: j, u: rngs[v].Float64()})
		}
		out := make([]local.Message, 0, g.Degree(v))
		for _, u := range g.Neighbors(v) {
			out = append(out, local.Message{From: v, To: u, Payload: lmMsg{val: st.val, prop: st.prop, coins: st.coins}})
		}
		return st, out, false
	}
	res, err := net.Run(R+1, init, step)
	if err != nil {
		return nil, 0, err
	}
	out := dist.NewConfig(r.n)
	for v := 0; v < r.n; v++ {
		st := res.States[v].(*lmNodeState)
		if st.err != nil {
			return nil, 0, fmt.Errorf("psample: filter evaluation failed at node %d: %w", v, st.err)
		}
		out[v] = int(st.val)
	}
	return out, res.Rounds, nil
}
