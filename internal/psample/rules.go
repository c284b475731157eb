// Package psample implements the paper's two distributed samplers —
// LubyGlauber and LocalMetropolis (Section 1.2) — and the chromatic
// variant, in two harnesses that share one update-rule implementation
// (Rules):
//
//   - a message-passing harness on local.Network, where only synchronous
//     rounds are charged, validating the O(Δ log n)-style round behavior
//     experimentally (LubyGlauberLOCAL, localMetropolisLOCAL,
//     ChromaticGlauberLOCAL), and
//   - three in-process engines, one per dynamic (BatchLubyGlauber,
//     BatchLocalMetropolis, BatchChromaticGlauber), over one lockstep
//     core (lockstep.go). The core advances B independent chains over one
//     chain-major state.Lattice on a worker pool over (vertex, chain
//     group) blocks with per-worker value-type RNG streams; each engine
//     adds only its stages, which run the fused kernels (the heat-bath
//     kernel of gibbs.Compiled.BindVertexSubset, FilterWeightBatch).
//     B = 1 is the single-chain sampler: its one-chain rows take scalar
//     paths instead of the chain-row kernels.
//
// The message-passing harnesses run the same fused kernels at one chain on
// each node's partial view, so both harnesses share one heat-bath kernel
// and one filter kernel as well as the rules.
//
// LubyGlauber interleaves construction and sampling: each round one phase
// of Luby's MIS algorithm (beats, in network.go) picks an independent set of
// free vertices, and every selected vertex performs a heat-bath update
// simultaneously — correct because an independent set shares no factor,
// so the simultaneous conditionals coincide with the sequential ones.
// ChromaticGlauber fixes the independent sets up front: the color classes
// of a proper coloring, heat-bathed one class per stage.
// LocalMetropolis is fully parallel: every free vertex proposes a fresh
// spin from its unary-weight distribution each round, and every
// multi-vertex factor independently accepts with the subset-product
// filter probability (gibbs.Compiled.FilterWeight normalized by the
// factor's maximum table entry); a vertex adopts its proposal iff all its
// factors accept.
//
// All three dynamics have the target Gibbs distribution µ^τ as their
// stationary distribution (the tests pin this exactly by enumerating the
// one-round transition matrix on small instances and comparing each
// engine's one-round law against it, and empirically by TV-distance tests
// against internal/exact for every internal/model builder).
package psample

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/state"
)

// Rules is an instance's compiled update rules: the free set, the Luby
// rival table, the LocalMetropolis proposals and filter factors, the
// chromatic class schedule and the canonical start, over the compiled
// evaluation engine behind them all. The rules depend only on the instance
// (G, x, τ), never on a run's randomness, so an instance has one Rules
// value (RulesOf), built on first use and shared by every engine, stage and
// drive on it. A Rules value is immutable after construction: the class
// schedule and the start are built lazily, each behind a sync.Once, and
// every engine only reads it, so any number of samplers may use one Rules
// concurrently.
type Rules struct {
	in  *gibbs.Instance
	eng *gibbs.Compiled
	n   int
	q   int

	// free[v] reports whether v is unpinned.
	free []bool
	// freeList is the free vertices in increasing order — the iteration
	// domain of every engine stage that touches only unpinned vertices.
	freeList []int
	// freeAdj[v] is free vertex v's free neighbors (nil for pinned
	// vertices) — the rivals of its Luby phase, precomputed so the batched
	// phase check sweeps chain rows without re-testing pinning.
	freeAdj [][]int32
	// riv/rivBit is freeAdj padded to exactly four rivals per vertex for
	// the batched engine's fused phase check: riv[4v+j] indexes the rival's
	// row in the shifted-key draw matrix (n, the all-zero sentinel row, for
	// padding), and rivBit[4v+j] is 1 when the rival outranks v in the
	// vertex-order tiebreak (rival id > v). With phase keys stored as
	// (draw53 << 1), the rival beats v exactly when key|bit > keyV — the
	// full beats order in one branchless unsigned compare.
	// Vertices with more than four free rivals (len(freeAdj[v]) > 4) are
	// not covered and take the engine's generic row-sweep instead.
	riv    []int32
	rivBit []uint64
	// proposal[v] is the normalized LocalMetropolis proposal distribution
	// of free vertex v: the product of every factor that is unary in v
	// under the pinning (nil for pinned vertices).
	proposal []dist.Dist
	// propCDF[v] is proposal[v] frozen into a cumulative row (zero value
	// for pinned vertices): one compare per symbol per draw, bit-identical
	// to proposal[v].Sample for the same uniform, shared by the batched
	// engine's stage 1 and the LOCAL harness (Propose).
	propCDF []dist.CDF
	// acc lists the acceptance-filtered factors: factors with at least two
	// distinct free scope vertices.
	acc []accFactor
	// accOff/accIdx is the CSR mapping each vertex to the indices (into
	// acc) of the acceptance factors that toggle it.
	accOff []int32
	accIdx []int32
	// accErr defers "LocalMetropolis cannot run on this instance" errors
	// (closure-backed acceptance factors have no enumerable maximum) so
	// that LubyGlauber, which never filters, still works.
	accErr error

	// sched is the chromatic stage schedule over free vertices, colored
	// lazily once (ClassSchedule), so the engines built on one instance
	// color its graph once.
	schedOnce sync.Once
	sched     [][]int
	// start is the canonical start as a one-chain lattice (one byte per
	// vertex on compact alphabets), built lazily once (canonical), and
	// startErr the failure to build it, which every engine reset reports.
	startOnce sync.Once
	start     *state.Lattice
	startErr  error
}

// accFactor is one acceptance-filtered factor of LocalMetropolis.
type accFactor struct {
	// fi is the factor index in the compiled engine.
	fi int
	// verts are the distinct free scope vertices (the toggled set).
	verts []int
	// scale converts FilterWeight into a probability: (1/max)^(2^k − 1)
	// where max is the factor's largest table entry, so every one of the
	// 2^k − 1 subset terms is at most 1.
	scale float64
}

// ErrNoFeasibleStart indicates that no feasible initial configuration could
// be constructed from the instance pinning.
var ErrNoFeasibleStart = errors.New("psample: no feasible initial state")

// RulesOf returns the instance's update rules, compiling them on the
// first call (gibbs.Instance.Rules caches them on the instance): every
// engine built on one instance shares one Rules value, and later calls
// return it, or the first call's error, at once. Compiling fails if some
// factor scope is not a clique of the interaction graph (the samplers rely
// on factor locality: a vertex's factors must be computable from its graph
// neighborhood) or if some free vertex has no feasible proposal. The
// instance's pinning must not change afterwards (see gibbs.Instance).
func RulesOf(in *gibbs.Instance) (*Rules, error) {
	r, err := in.Rules(func(in *gibbs.Instance) (any, error) { return newRules(in) })
	if err != nil {
		return nil, err
	}
	return r.(*Rules), nil
}

// newRules compiles the update rules of the instance.
func newRules(in *gibbs.Instance) (*Rules, error) {
	s := in.Spec
	r := &Rules{
		in:  in,
		eng: s.Compiled(),
		n:   s.N(),
		q:   s.Q,
	}
	r.free = make([]bool, r.n)
	for v, x := range in.Pinned {
		r.free[v] = x == dist.Unset
		if r.free[v] {
			r.freeList = append(r.freeList, v)
		}
	}
	r.freeAdj = make([][]int32, r.n)
	for _, v := range r.freeList {
		for _, u := range s.G.Neighbors(v) {
			if r.free[u] {
				r.freeAdj[v] = append(r.freeAdj[v], int32(u))
			}
		}
	}
	r.riv = make([]int32, 4*r.n)
	r.rivBit = make([]uint64, 4*r.n)
	for i := range r.riv {
		r.riv[i] = int32(r.n)
	}
	for _, v := range r.freeList {
		adj := r.freeAdj[v]
		if len(adj) > 4 {
			continue
		}
		for j, u := range adj {
			r.riv[4*v+j] = u
			if int(u) > v {
				r.rivBit[4*v+j] = 1
			}
		}
	}
	propW := make([][]float64, r.n)
	var scratch []int
	for fi, f := range s.Factors {
		// Distinct scope vertices, and the free ones among them.
		scratch = scratch[:0]
		for _, u := range f.Scope {
			seen := false
			for _, d := range scratch {
				if d == u {
					seen = true
					break
				}
			}
			if !seen {
				scratch = append(scratch, u)
			}
		}
		for i, u := range scratch {
			for _, w := range scratch[i+1:] {
				if !s.G.HasEdge(u, w) {
					return nil, fmt.Errorf("psample: factor %d (%s): scope vertices %d and %d are not adjacent — scopes must be cliques of G", fi, f.Name, u, w)
				}
			}
		}
		var freeVerts []int
		for _, u := range scratch {
			if r.free[u] {
				freeVerts = append(freeVerts, u)
			}
		}
		switch len(freeVerts) {
		case 0:
			// Constant under the pinning; feasibility of the pinning is
			// checked by Start.
		case 1:
			v := freeVerts[0]
			if propW[v] == nil {
				propW[v] = ones(r.q)
			}
			if err := foldUnary(propW[v], f, in.Pinned, v); err != nil {
				return nil, fmt.Errorf("psample: factor %d (%s): %w", fi, f.Name, err)
			}
		default:
			// The subset-product filter has 2^k − 1 terms over k toggled
			// vertices; at k ≥ 63 the term count itself overflows int64 and
			// the scale exponent silently becomes garbage, so such factors
			// are rejected outright rather than deferred to accErr.
			if k := len(freeVerts); k >= 63 {
				return nil, fmt.Errorf("psample: factor %d (%s) has %d free scope vertices — the 2^k−1 subset-product filter overflows for k ≥ 63; split the factor", fi, f.Name, k)
			}
			af := accFactor{fi: fi, verts: freeVerts}
			if m, ok := r.eng.TableMax(fi); !ok {
				if r.accErr == nil {
					r.accErr = fmt.Errorf("psample: factor %d (%s): %w — LocalMetropolis needs table-backed factors", fi, f.Name, gibbs.ErrNotTabled)
				}
			} else if m <= 0 {
				if r.accErr == nil {
					r.accErr = fmt.Errorf("psample: factor %d (%s) is identically zero", fi, f.Name)
				}
			} else {
				// int64, not int: the k ≥ 63 guard above leaves k up to 62,
				// which still overflows a 32-bit int shift.
				terms := int64(1)<<len(freeVerts) - 1
				af.scale = math.Pow(1/m, float64(terms))
			}
			r.acc = append(r.acc, af)
		}
	}
	r.proposal = make([]dist.Dist, r.n)
	r.propCDF = make([]dist.CDF, r.n)
	for v := 0; v < r.n; v++ {
		if !r.free[v] {
			continue
		}
		w := propW[v]
		if w == nil {
			w = ones(r.q)
		}
		d, err := dist.FromWeights(w)
		if err != nil {
			return nil, fmt.Errorf("%w: vertex %d has no feasible proposal", ErrNoFeasibleStart, v)
		}
		r.proposal[v] = d
		r.propCDF[v] = dist.NewCDF(d)
	}
	// CSR: acceptance factors toggling each vertex.
	counts := make([]int32, r.n+1)
	for _, af := range r.acc {
		for _, v := range af.verts {
			counts[v+1]++
		}
	}
	r.accOff = make([]int32, r.n+1)
	for v := 0; v < r.n; v++ {
		r.accOff[v+1] = r.accOff[v] + counts[v+1]
	}
	r.accIdx = make([]int32, r.accOff[r.n])
	fill := make([]int32, r.n)
	copy(fill, r.accOff[:r.n])
	for j, af := range r.acc {
		for _, v := range af.verts {
			r.accIdx[fill[v]] = int32(j)
			fill[v]++
		}
	}
	return r, nil
}

// ones returns a weight vector of q ones.
func ones(q int) []float64 {
	w := make([]float64, q)
	for i := range w {
		w[i] = 1
	}
	return w
}

// foldUnary multiplies into w the row of factor f as a function of v's
// symbol, with every other scope vertex read from the pinning.
func foldUnary(w []float64, f gibbs.Factor, pinned dist.Config, v int) error {
	assign := make([]int, len(f.Scope))
	for x := range w {
		for j, u := range f.Scope {
			if u == v {
				assign[j] = x
			} else {
				if pinned[u] == dist.Unset {
					return fmt.Errorf("scope vertex %d unexpectedly free", u)
				}
				assign[j] = pinned[u]
			}
		}
		w[x] *= f.Eval(assign)
	}
	return nil
}

// Engine returns the compiled evaluation engine shared by the samplers.
func (r *Rules) Engine() *gibbs.Compiled { return r.eng }

// Free reports whether v is unpinned.
func (r *Rules) Free(v int) bool { return r.free[v] }

// Start returns a copy of the canonical start every dynamic shares
// (gibbs.Instance.Start: the greedy completion of the pinning), so that
// mixing comparisons share an initial state; a failure wraps
// ErrNoFeasibleStart.
func (r *Rules) Start() (dist.Config, error) {
	start, err := r.canonical()
	if err != nil {
		return nil, err
	}
	return start.Chain(0), nil
}

// canonical returns the canonical start as a one-chain lattice, building
// it on the first call. The lattice is shared: callers only read it.
func (r *Rules) canonical() (*state.Lattice, error) {
	r.startOnce.Do(func() {
		start, err := r.in.Start()
		if err != nil {
			r.startErr = fmt.Errorf("%w: %v", ErrNoFeasibleStart, err)
			return
		}
		r.start, r.startErr = state.Pack(r.n, r.q, []dist.Config{start})
	})
	return r.start, r.startErr
}

// ResetLattice refills l with every chain at the canonical start — the
// shared Reset path of every in-process engine. When l is nil it
// allocates a fresh `chains`-chain lattice, which picks compact (uint8)
// cells for q ≤ 255 and whose constructor validates the chain count and q.
func (r *Rules) ResetLattice(l *state.Lattice, chains int) (*state.Lattice, error) {
	start, err := r.canonical()
	if err != nil {
		return nil, err
	}
	if l == nil {
		if l, err = state.New(r.n, chains, r.q); err != nil {
			return nil, err
		}
	}
	if err := l.Broadcast(start); err != nil {
		return nil, err
	}
	return l, nil
}

// Propose draws a LocalMetropolis proposal for vertex v: a fresh symbol
// from the unary-weight distribution for free vertices, the pinned symbol
// otherwise. The draw goes through the frozen cumulative row, so it is
// bit-identical to proposal[v].Sample for the same uniform.
func (r *Rules) Propose(v int, rng *dist.Xoshiro) int {
	if !r.free[v] {
		return r.in.Pinned[v]
	}
	return r.propCDF[v].Draw(rng)
}

// MetropolisReady reports whether the instance supports LocalMetropolis
// (every acceptance factor is table-backed with a positive maximum); the
// returned error describes the first obstruction.
func (r *Rules) MetropolisReady() error { return r.accErr }

// AccAt returns the indices (into the acceptance-factor list) of the
// factors toggling vertex v. The slice aliases internal state.
func (r *Rules) AccAt(v int) []int32 {
	return r.accIdx[r.accOff[v]:r.accOff[v+1]]
}

// filterProb returns the probability with which acceptance factor j passes
// the round's filter, given the current configuration old and the proposal
// prop (both total).
func (r *Rules) filterProb(j int, old, prop dist.Config) (float64, error) {
	af := &r.acc[j]
	w, err := r.eng.FilterWeight(af.fi, old, prop, af.verts)
	if err != nil {
		return 0, err
	}
	return w * af.scale, nil
}

// ClassSchedule returns the deterministic chromatic stage schedule: the
// free vertices grouped into independent sets by a proper coloring of the
// interaction graph — natural-order greedy or the degeneracy
// (smallest-last) order, whichever leaves fewer classes after the pinned
// vertices are dropped (a coloring that needs more colors on the full
// graph may still have fewer surviving classes). The schedule is computed
// once per Rules, so once per instance, and cached; the returned slices
// alias that cache and must not be modified.
func (r *Rules) ClassSchedule() [][]int {
	r.schedOnce.Do(func() {
		g := r.in.Spec.G
		freeClasses := func(colors []int) [][]int {
			for v := range colors {
				if !r.free[v] {
					colors[v] = -1
				}
			}
			return graph.ColorClasses(colors)
		}
		gc, _ := g.GreedyColoring()
		classes := freeClasses(gc)
		dc, _ := g.DegeneracyColoring()
		if dcl := freeClasses(dc); len(dcl) < len(classes) {
			classes = dcl
		}
		r.sched = classes
	})
	return r.sched
}
