package gibbs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/graph"
)

// hardcoreSpec builds a hardcore spec by hand (the model package depends on
// gibbs, so tests here construct factors directly).
func hardcoreSpec(t *testing.T, g *graph.Graph, lambda float64) *Spec {
	t.Helper()
	var factors []Factor
	for v := 0; v < g.N(); v++ {
		factors = append(factors, Factor{
			Scope: []int{v},
			Eval: func(a []int) float64 {
				if a[0] == 1 {
					return lambda
				}
				return 1
			},
		})
	}
	for _, e := range g.Edges() {
		factors = append(factors, Factor{
			Scope: []int{e.U, e.V},
			Eval: func(a []int) float64 {
				if a[0] == 1 && a[1] == 1 {
					return 0
				}
				return 1
			},
		})
	}
	s, err := NewSpec(g, 2, factors)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSpecErrors(t *testing.T) {
	g := graph.Path(3)
	if _, err := NewSpec(g, 0, nil); err == nil {
		t.Error("q=0 accepted")
	}
	if _, err := NewSpec(g, 2, []Factor{{Scope: []int{5}, Eval: func([]int) float64 { return 1 }}}); err == nil {
		t.Error("out-of-range scope accepted")
	}
	if _, err := NewSpec(g, 2, []Factor{{Scope: []int{0}}}); err == nil {
		t.Error("nil Eval accepted")
	}
	if _, err := NewSpec(g, 2, []Factor{{Scope: nil, Eval: func([]int) float64 { return 1 }}}); err == nil {
		t.Error("empty scope accepted")
	}
}

func TestWeight(t *testing.T) {
	g := graph.Path(3)
	s := hardcoreSpec(t, g, 2)
	// Independent set {0, 2}: weight λ² = 4.
	w, err := s.Weight(dist.Config{1, 0, 1})
	if err != nil || w != 4 {
		t.Fatalf("w = %v err %v", w, err)
	}
	// Adjacent occupied: weight 0.
	w, _ = s.Weight(dist.Config{1, 1, 0})
	if w != 0 {
		t.Fatalf("infeasible weight = %v", w)
	}
	// Partial configuration is an error.
	if _, err := s.Weight(dist.Config{1, dist.Unset, 0}); err == nil {
		t.Error("partial config weight accepted")
	}
}

func TestLocality(t *testing.T) {
	g := graph.Path(4)
	s := hardcoreSpec(t, g, 1)
	ell, err := s.Locality()
	if err != nil {
		t.Fatal(err)
	}
	if ell != 1 {
		t.Fatalf("pairwise model locality = %d, want 1", ell)
	}
	// A factor spanning distance 3 has diameter 3.
	far, err := NewSpec(g, 2, []Factor{{Scope: []int{0, 3}, Eval: func([]int) float64 { return 1 }}})
	if err != nil {
		t.Fatal(err)
	}
	ell, err = far.Locality()
	if err != nil || ell != 3 {
		t.Fatalf("long factor locality = %d err %v", ell, err)
	}
}

func TestLocallyFeasible(t *testing.T) {
	g := graph.Path(3)
	s := hardcoreSpec(t, g, 1)
	c := dist.NewConfig(3)
	if !s.LocallyFeasible(c) {
		t.Error("empty config infeasible")
	}
	c[0], c[1] = 1, 1
	if s.LocallyFeasible(c) {
		t.Error("adjacent occupied locally feasible")
	}
	c[1] = 0
	if !s.LocallyFeasible(c) {
		t.Error("valid partial config infeasible")
	}
}

func TestLocallyFeasibleAt(t *testing.T) {
	g := graph.Cycle(4)
	s := hardcoreSpec(t, g, 1)
	c := dist.NewConfig(4)
	c[0], c[1] = 1, 1
	if s.LocallyFeasibleAt(c, 0) {
		t.Error("violated factor at 0 not detected")
	}
	if !s.LocallyFeasibleAt(c, 2) {
		t.Error("vertex 2 has no violated factor")
	}
}

func TestFactorsAt(t *testing.T) {
	g := graph.Path(3)
	s := hardcoreSpec(t, g, 1)
	// Vertex 1 appears in its activity factor and two edge factors.
	if got := len(s.FactorsAt(1)); got != 3 {
		t.Fatalf("factors at 1 = %d", got)
	}
	if s.FactorsAt(-1) != nil || s.FactorsAt(9) != nil {
		t.Error("out-of-range factor query should be nil")
	}
}

func TestGreedyCompletion(t *testing.T) {
	g := graph.Cycle(5)
	s := hardcoreSpec(t, g, 1)
	c := dist.NewConfig(5)
	c[0] = 1
	out, err := s.GreedyCompletion(c)
	if err != nil {
		t.Fatal(err)
	}
	if !out.IsTotal() {
		t.Fatal("completion not total")
	}
	if out[0] != 1 {
		t.Fatal("completion changed pinned value")
	}
	w, err := s.Weight(out)
	if err != nil || w <= 0 {
		t.Fatalf("greedy completion infeasible: w=%v err=%v", w, err)
	}
}

func TestGreedyCompletionStuck(t *testing.T) {
	// 1-coloring of an edge has no feasible completion.
	g := graph.Path(2)
	s, err := NewSpec(g, 1, []Factor{{
		Scope: []int{0, 1},
		Eval: func(a []int) float64 {
			if a[0] == a[1] {
				return 0
			}
			return 1
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.GreedyCompletion(dist.NewConfig(2)); err == nil {
		t.Error("impossible completion succeeded")
	}
}

func TestWeightRatioOnBall(t *testing.T) {
	g := graph.Path(4)
	s := hardcoreSpec(t, g, 3)
	a := dist.Config{0, 0, 0, 0}
	b := dist.Config{1, 0, 0, 0}
	r, err := s.WeightRatioOnBall(b, a, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	wa, _ := s.Weight(a)
	wb, _ := s.Weight(b)
	if !almostEq(r, wb/wa, 1e-12) {
		t.Fatalf("ratio = %v, want %v", r, wb/wa)
	}
	// Infeasible old config in the touched region errors.
	bad := dist.Config{1, 1, 0, 0}
	if _, err := s.WeightRatioOnBall(a, bad, []int{0, 1}); err == nil {
		t.Error("zero denominator accepted")
	}
}

// Property: WeightRatioOnBall equals the true weight ratio for random
// feasible pairs differing on the declared set.
func TestWeightRatioProperty(t *testing.T) {
	g := graph.Cycle(6)
	s := hardcoreSpec(t, g, 2)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random feasible config: greedy from random order of 1-attempts.
		a := dist.Config{0, 0, 0, 0, 0, 0}
		for v := 0; v < 6; v++ {
			if r.Intn(2) == 1 {
				a[v] = 1
				if !s.LocallyFeasibleAt(a, v) {
					a[v] = 0
				}
			}
		}
		// Flip one vertex if feasible.
		v := r.Intn(6)
		b := a.Clone()
		b[v] = 1 - b[v]
		if !s.LocallyFeasible(b) {
			return true // skip infeasible flips
		}
		ratio, err := s.WeightRatioOnBall(b, a, []int{v})
		if err != nil {
			return false
		}
		wa, _ := s.Weight(a)
		wb, _ := s.Weight(b)
		return almostEq(ratio, wb/wa, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Error(err)
	}
}

func TestInstancePinning(t *testing.T) {
	g := graph.Path(3)
	s := hardcoreSpec(t, g, 1)
	in, err := NewInstance(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.FreeVertices()) != 3 || len(in.Lambda()) != 0 {
		t.Fatal("fresh instance pinning wrong")
	}
	in2, err := in.Pin(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if in.Pinned[1] != dist.Unset {
		t.Error("Pin mutated original instance")
	}
	if in2.Pinned[1] != 1 {
		t.Error("Pin did not pin")
	}
	// Conflicting repin.
	if _, err := in2.Pin(1, 0); err == nil {
		t.Error("conflicting repin accepted")
	}
	// Identical repin is fine.
	if _, err := in2.Pin(1, 1); err != nil {
		t.Error("identical repin rejected")
	}
	// Bad values.
	if _, err := in.Pin(1, 5); err == nil {
		t.Error("symbol outside alphabet accepted")
	}
	if _, err := in.Pin(-1, 0); err == nil {
		t.Error("vertex out of range accepted")
	}
}

func TestNewInstanceValidation(t *testing.T) {
	g := graph.Path(2)
	s := hardcoreSpec(t, g, 1)
	if _, err := NewInstance(s, dist.Config{0}); err == nil {
		t.Error("short pinning accepted")
	}
	if _, err := NewInstance(s, dist.Config{7, dist.Unset}); err == nil {
		t.Error("out-of-alphabet pinning accepted")
	}
	pin := dist.Config{1, dist.Unset}
	in, err := NewInstance(s, pin)
	if err != nil {
		t.Fatal(err)
	}
	pin[0] = 0
	if in.Pinned[0] != 1 {
		t.Error("instance shares pinning storage with caller")
	}
}

func TestConsistentTotal(t *testing.T) {
	g := graph.Path(2)
	s := hardcoreSpec(t, g, 2)
	in, _ := NewInstance(s, dist.Config{1, dist.Unset})
	if !in.ConsistentTotal(dist.Config{1, 0}) {
		t.Error("consistent config rejected")
	}
	if in.ConsistentTotal(dist.Config{0, 0}) {
		t.Error("inconsistent config accepted")
	}
}

func TestPinAll(t *testing.T) {
	g := graph.Path(3)
	s := hardcoreSpec(t, g, 1)
	in, _ := NewInstance(s, dist.Config{1, dist.Unset, dist.Unset})
	extra := dist.NewConfig(3)
	extra[2] = 1
	out := in.PinAll(extra)
	if out.Pinned[0] != 1 || out.Pinned[2] != 1 || out.Pinned[1] != dist.Unset {
		t.Fatalf("PinAll = %v", out.Pinned)
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
