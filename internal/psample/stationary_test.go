package psample

// stationary_test.go pins the correctness of both dynamics exactly, not
// just statistically: on instances small enough to enumerate, it builds the
// one-round transition kernel P of each sampler by brute force (every
// proposal combination, every coin pattern, every Luby draw ordering, every
// joint heat-bath outcome) and checks µP = µ for the exact Gibbs
// distribution µ from internal/exact. It then ties each engine to that
// enumerated kernel: one engine round started from σ must follow the row
// P(σ, ·), for every σ in supp µ.

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/state"
)

// tinyInstances enumerates small instances covering soft and hard
// constraints, pairwise and higher-arity factors, and pinning.
func tinyInstances(t *testing.T) map[string]*gibbs.Instance {
	t.Helper()
	out := make(map[string]*gibbs.Instance)
	mk := func(name string, spec *gibbs.Spec, err error, pinned dist.Config) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		in, err := gibbs.NewInstance(spec, pinned)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = in
	}

	hc, err := model.Hardcore(graph.Path(3), 1.3)
	mk("hardcore-path3", hc, err, nil)

	hcPin, err := model.Hardcore(graph.Path(3), 0.8)
	mk("hardcore-pinned", hcPin, err, dist.Config{model.Out, dist.Unset, dist.Unset})

	is, err := model.Ising(graph.Cycle(3), 0.6, 1.4)
	mk("ising-triangle", is, err, nil)

	m, err := model.Matching(graph.Star(3), 1.1)
	if err != nil {
		t.Fatal(err)
	}
	mk("matching-star3", m.Spec, nil, nil)

	// Every vertex of K5 has four free rivals, the full width of the
	// padded Luby compare; the hub of a six-vertex star has five, which
	// takes the high-degree sweep.
	k5, err := model.Hardcore(graph.Complete(5), 0.9)
	mk("hardcore-k5", k5, err, nil)

	star, err := model.Hardcore(graph.Star(6), 0.7)
	mk("hardcore-star6", star, err, nil)

	// A genuine arity-3 factor (exercises the subset filter beyond the
	// pairwise three-term rule): a soft not-all-equal constraint on a
	// triangle plus a mild field.
	tri := graph.Complete(3)
	table := make([]float64, 8)
	for idx := range table {
		a, b, c := idx>>2&1, idx>>1&1, idx&1
		if a == b && b == c {
			table[idx] = 0.3
		} else {
			table[idx] = 1.0
		}
	}
	factors := []gibbs.Factor{
		{Scope: []int{0, 1, 2}, Table: table, Name: "nae"},
		gibbs.UnaryTable(0, []float64{1, 1.7}, "field"),
	}
	spec, err := gibbs.NewSpec(tri, 2, factors)
	mk("triangle-arity3", spec, err, nil)

	return out
}

// pushMetropolisRow adds weight·P(σ, ·) for one LocalMetropolis round to
// out, enumerating proposals and coin patterns exactly.
func pushMetropolisRow(t *testing.T, r *Rules, sigma dist.Config, weight float64, out *dist.Joint) {
	t.Helper()
	free := r.in.FreeVertices()
	prop := sigma.Clone()
	var rec func(i int, p float64)
	coins := make([]float64, len(r.acc))
	rec = func(i int, p float64) {
		if p == 0 {
			return
		}
		if i < len(free) {
			v := free[i]
			for x := 0; x < r.q; x++ {
				prop[v] = x
				rec(i+1, p*r.proposal[v][x])
			}
			prop[v] = sigma[v]
			return
		}
		// All proposals fixed: coin probabilities per acceptance factor.
		for j := range r.acc {
			pj, err := r.FilterProb(j, sigma, prop)
			if err != nil {
				t.Fatal(err)
			}
			coins[j] = pj
		}
		for mask := 0; mask < 1<<len(r.acc); mask++ {
			pm := p
			for j := range r.acc {
				if mask&(1<<j) != 0 {
					pm *= coins[j]
				} else {
					pm *= 1 - coins[j]
				}
			}
			if pm == 0 {
				continue
			}
			tau := sigma.Clone()
			for _, v := range free {
				ok := true
				for _, j := range r.AccAt(v) {
					if mask&(1<<int(j)) == 0 {
						ok = false
						break
					}
				}
				if ok {
					tau[v] = prop[v]
				}
			}
			out.Add(tau, pm)
		}
	}
	rec(0, weight)
}

// pushLubyRow adds weight·P(σ, ·) for one LubyGlauber round to out: draw
// orderings are uniform over permutations of the free vertices (exact ties
// have probability zero), the winners form the phase's independent set, and
// the winners' heat-bath updates are conditionally independent.
func pushLubyRow(t *testing.T, r *Rules, sigma dist.Config, weight float64, out *dist.Joint) {
	t.Helper()
	free := r.in.FreeVertices()
	g := r.in.Spec.G
	rank := make(map[int]int, len(free))
	buf := make([]float64, r.q)
	var conds []dist.Dist
	var winners []int

	perm := make([]int, len(free))
	copy(perm, free)
	var permute func(k int, p float64)
	pushUpdates := func(p float64) {
		// Enumerate the winners' joint heat-bath outcome.
		tau := sigma.Clone()
		var rec func(i int, pu float64)
		rec = func(i int, pu float64) {
			if pu == 0 {
				return
			}
			if i == len(winners) {
				out.Add(tau.Clone(), pu)
				return
			}
			v := winners[i]
			for x := 0; x < r.q; x++ {
				tau[v] = x
				rec(i+1, pu*conds[i][x])
			}
			tau[v] = sigma[v]
		}
		rec(0, p)
	}
	handleOrdering := func(p float64) {
		for i, v := range perm {
			rank[v] = i
		}
		winners = winners[:0]
		for _, v := range free {
			win := true
			for _, u := range g.Neighbors(v) {
				if r.free[u] && rank[u] > rank[v] {
					win = false
					break
				}
			}
			if win {
				winners = append(winners, v)
			}
		}
		conds = conds[:0]
		for _, v := range winners {
			w, err := r.eng.CondWeights(sigma, v, buf)
			if err != nil {
				t.Fatal(err)
			}
			d, err := dist.FromWeights(w)
			if err != nil {
				t.Fatal(err)
			}
			conds = append(conds, d)
		}
		pushUpdates(p)
	}
	permute = func(k int, p float64) {
		if k == len(perm) {
			handleOrdering(p)
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			permute(k+1, p)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	fact := 1.0
	for i := 2; i <= len(free); i++ {
		fact *= float64(i)
	}
	permute(0, weight/fact)
}

// rowPusher adds weight·P(σ, ·) for one round of a dynamics to out.
type rowPusher func(t *testing.T, r *Rules, sigma dist.Config, weight float64, out *dist.Joint)

// checkStationary verifies µP = µ for the given row-pusher.
func checkStationary(t *testing.T, in *gibbs.Instance, push rowPusher) {
	t.Helper()
	r, err := NewRules(in)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := exact.JointDistribution(in)
	if err != nil {
		t.Fatal(err)
	}
	after := dist.NewJoint(in.N())
	for _, sigma := range truth.Support() {
		push(t, r, sigma, truth.Prob(sigma), after)
	}
	if err := after.Normalize(); err != nil {
		t.Fatal(err)
	}
	tv, err := dist.TVJoint(truth, after)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 1e-9 || math.IsNaN(tv) {
		t.Errorf("one round moves the stationary distribution: TV(µP, µ) = %g", tv)
	}
}

func TestLocalMetropolisStationaryExact(t *testing.T) {
	for name, in := range tinyInstances(t) {
		t.Run(name, func(t *testing.T) {
			r, err := NewRules(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.MetropolisReady(); err != nil {
				t.Fatal(err)
			}
			checkStationary(t, in, pushMetropolisRow)
		})
	}
}

func TestLubyGlauberStationaryExact(t *testing.T) {
	for name, in := range tinyInstances(t) {
		t.Run(name, func(t *testing.T) {
			checkStationary(t, in, pushLubyRow)
		})
	}
}

// checkBatchTiny drives a batched engine over a tiny instance and checks
// that every chain stays feasible and pinned — this is what forces the
// batched kernels (the masked subset heat-bath, the batched filter's
// mask walk) through the arity-3 and pinning cases the enumerations cover.
func checkBatchTiny(t *testing.T, in *gibbs.Instance, s interface {
	Run(rounds int) error
	Chains() int
	Chain(c int) dist.Config
}) {
	t.Helper()
	if err := s.Run(20); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < s.Chains(); c++ {
		cfg := s.Chain(c)
		w, err := in.Spec.Weight(cfg)
		if err != nil || w <= 0 {
			t.Errorf("chain %d infeasible state %v (w=%v err=%v)", c, cfg, w, err)
		}
		for v, x := range in.Pinned {
			if x != dist.Unset && cfg[v] != x {
				t.Errorf("chain %d pinning violated at vertex %d: %v", c, v, cfg)
			}
		}
	}
}

// roundEngine is the slice of an engine the one-round law check drives:
// seed every chain with σ through the lattice, run one round, read the
// chains back.
type roundEngine interface {
	Run(rounds int) error
	Chains() int
	Chain(c int) dist.Config
	Lattice() *state.Lattice
}

// oneRoundSamples is the number of one-round draws per σ in each mode of
// checkOneRoundLaw.
const oneRoundSamples = 4096

// checkOneRoundLaw ties an engine to the enumerated kernel: for every σ in
// supp µ it compares the empirical law of one engine round started from σ
// with the row P(σ, ·), within 2.5 times the sampling-noise envelope. It
// runs twice. The wide run puts σ in every chain of one engine whose last
// chain group holds one chain, so the chain-row kernels and the one-chain
// paths run side by side. The one-chain run repeats Broadcast + Run(1) on a
// B = 1 engine, so every draw comes from the one-chain paths.
func checkOneRoundLaw(t *testing.T, in *gibbs.Instance, push rowPusher, build func(r *Rules, chains int) (roundEngine, error)) {
	t.Helper()
	r, err := NewRules(in)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := exact.JointDistribution(in)
	if err != nil {
		t.Fatal(err)
	}
	wideB := (oneRoundSamples/ChainBlock(r.q))*ChainBlock(r.q) + 1
	wide, err := build(r, wideB)
	if err != nil {
		t.Fatal(err)
	}
	one, err := build(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	compare := func(mode string, sigma dist.Config, row *dist.Joint, emp *dist.Empirical, samples int) {
		t.Helper()
		got, err := emp.Joint()
		if err != nil {
			t.Fatal(err)
		}
		tv, err := dist.TVJoint(row, got)
		if err != nil {
			t.Fatal(err)
		}
		if tol := 2.5 * dist.ExpectedTVNoise(row.Len(), samples); tv > tol {
			t.Errorf("%s: one round from %v: TV vs P(σ, ·) = %v > envelope %v (support %d, samples %d)",
				mode, sigma, tv, tol, row.Len(), samples)
		}
	}
	for _, sigma := range truth.Support() {
		row := dist.NewJoint(in.N())
		push(t, r, sigma, 1, row)

		if err := wide.Lattice().Broadcast(sigma); err != nil {
			t.Fatal(err)
		}
		if err := wide.Run(1); err != nil {
			t.Fatal(err)
		}
		emp := dist.NewEmpirical(in.N())
		for c := 0; c < wide.Chains(); c++ {
			emp.Observe(wide.Chain(c))
		}
		compare("wide", sigma, row, emp, wide.Chains())

		emp = dist.NewEmpirical(in.N())
		for i := 0; i < oneRoundSamples; i++ {
			if err := one.Lattice().Broadcast(sigma); err != nil {
				t.Fatal(err)
			}
			if err := one.Run(1); err != nil {
				t.Fatal(err)
			}
			emp.Observe(one.Chain(0))
		}
		compare("one-chain", sigma, row, emp, oneRoundSamples)
	}
}

// TestBatchLubyGlauberOneRoundLaw ties the LubyGlauber engine's one-round
// kernel to the enumerated pushLubyRow, state by state, on the wide chain
// rows and on the one-chain paths.
func TestBatchLubyGlauberOneRoundLaw(t *testing.T) {
	for name, in := range tinyInstances(t) {
		t.Run(name, func(t *testing.T) {
			checkOneRoundLaw(t, in, pushLubyRow, func(r *Rules, chains int) (roundEngine, error) {
				return NewBatchLubyGlauber(r, chains, 7)
			})
		})
	}
}

// TestBatchLocalMetropolisOneRoundLaw is the LocalMetropolis analogue
// against the enumerated pushMetropolisRow.
func TestBatchLocalMetropolisOneRoundLaw(t *testing.T) {
	for name, in := range tinyInstances(t) {
		t.Run(name, func(t *testing.T) {
			checkOneRoundLaw(t, in, pushMetropolisRow, func(r *Rules, chains int) (roundEngine, error) {
				return NewBatchLocalMetropolis(r, chains, 7)
			})
		})
	}
}

// TestBatchLubyGlauberStationaryExact pins the LubyGlauber engine's
// one-round kernel: the enumerated kernel preserves µ, and
// TestBatchLubyGlauberOneRoundLaw ties every chain of the engine to that
// kernel state by state. Chains do not interact (disjoint lattice
// columns, disjoint draws), so µP = µ per chain implies stationarity of
// the whole lattice product. The engine itself is then driven over each
// tiny instance to exercise the masked subset kernel on the arity-3 and
// pinned cases.
func TestBatchLubyGlauberStationaryExact(t *testing.T) {
	for name, in := range tinyInstances(t) {
		t.Run(name, func(t *testing.T) {
			checkStationary(t, in, pushLubyRow)
			r, err := NewRules(in)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewBatchLubyGlauber(r, 4, 5)
			if err != nil {
				t.Fatal(err)
			}
			checkBatchTiny(t, in, s)
		})
	}
}

// TestBatchLocalMetropolisStationaryExact is the LocalMetropolis analogue:
// the enumerated proposal/coin kernel preserves µ and is the engine's
// per-chain kernel (TestBatchLocalMetropolisOneRoundLaw), and the engine
// run exercises the batched filter's mask walk on the genuine arity-3
// factor and the pinned instance.
func TestBatchLocalMetropolisStationaryExact(t *testing.T) {
	for name, in := range tinyInstances(t) {
		t.Run(name, func(t *testing.T) {
			r, err := NewRules(in)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.MetropolisReady(); err != nil {
				t.Fatal(err)
			}
			checkStationary(t, in, pushMetropolisRow)
			s, err := NewBatchLocalMetropolis(r, 4, 5)
			if err != nil {
				t.Fatal(err)
			}
			checkBatchTiny(t, in, s)
		})
	}
}
