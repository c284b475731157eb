package model

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/graph"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func mustInstance(t *testing.T, s *gibbs.Spec) *gibbs.Instance {
	t.Helper()
	in, err := gibbs.NewInstance(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestHardcorePartitionSmall(t *testing.T) {
	// Hardcore on P3 with λ: Z = 1 + 3λ + λ² (independent sets:
	// ∅, {0},{1},{2},{0,2}).
	g := graph.Path(3)
	for _, lambda := range []float64{0.5, 1, 2} {
		s, err := Hardcore(g, lambda)
		if err != nil {
			t.Fatal(err)
		}
		z, err := exact.Partition(mustInstance(t, s))
		if err != nil {
			t.Fatal(err)
		}
		want := 1 + 3*lambda + lambda*lambda
		if !almostEq(z, want, 1e-9) {
			t.Errorf("λ=%v: Z = %v, want %v", lambda, z, want)
		}
	}
}

func TestHardcoreRejectsBadLambda(t *testing.T) {
	if _, err := Hardcore(graph.Path(2), 0); err == nil {
		t.Error("λ=0 accepted")
	}
	if _, err := Hardcore(graph.Path(2), -1); err == nil {
		t.Error("λ<0 accepted")
	}
}

func TestHardcoreCountsIndependentSets(t *testing.T) {
	// λ=1 counts independent sets; C5 has 11.
	s, err := Hardcore(graph.Cycle(5), 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := exact.CountFeasible(mustInstance(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if n != 11 {
		t.Errorf("C5 independent sets = %d, want 11", n)
	}
}

func TestTwoSpinValidate(t *testing.T) {
	cases := []struct {
		p  TwoSpinParams
		ok bool
	}{
		{TwoSpinParams{Beta: 1, Gamma: 0, Lambda: 1}, true},
		{TwoSpinParams{Beta: 0.5, Gamma: 0.5, Lambda: 2}, true},
		{TwoSpinParams{Beta: -1, Gamma: 1, Lambda: 1}, false},
		{TwoSpinParams{Beta: 0, Gamma: 0, Lambda: 1}, false},
		{TwoSpinParams{Beta: 1, Gamma: 1, Lambda: 0}, false},
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v", c.p, err)
		}
	}
}

func TestTwoSpinMatchesHardcore(t *testing.T) {
	// (β, γ) = (1, 0) must reproduce hardcore exactly.
	g := graph.Cycle(4)
	hc, _ := Hardcore(g, 1.5)
	ts, err := TwoSpin(g, TwoSpinParams{Beta: 1, Gamma: 0, Lambda: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	zh, _ := exact.Partition(mustInstance(t, hc))
	zt, _ := exact.Partition(mustInstance(t, ts))
	if !almostEq(zh, zt, 1e-9) {
		t.Errorf("hardcore Z=%v, 2-spin Z=%v", zh, zt)
	}
}

func TestIsingPartitionOnEdge(t *testing.T) {
	// Single edge with β=γ=b, λ=1: Z = 2b + 2.
	g := graph.Path(2)
	s, err := Ising(g, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	z, err := exact.Partition(mustInstance(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(z, 3, 1e-9) {
		t.Errorf("Ising edge Z = %v, want 3", z)
	}
}

func TestColoringCounts(t *testing.T) {
	// Proper q-colorings of a triangle: q(q-1)(q-2).
	s, err := Coloring(graph.Complete(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	n, err := exact.CountFeasible(mustInstance(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Errorf("3-colorings of K3 = %d, want 6", n)
	}
	// Chromatic polynomial of C4 at q=3: (q-1)^4 + (q-1) = 16+2 = 18.
	s2, _ := Coloring(graph.Cycle(4), 3)
	n2, err := exact.CountFeasible(mustInstance(t, s2))
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 18 {
		t.Errorf("3-colorings of C4 = %d, want 18", n2)
	}
	if _, err := Coloring(graph.Path(2), 0); err == nil {
		t.Error("q=0 accepted")
	}
}

func TestListColoring(t *testing.T) {
	g := graph.Path(2)
	lists := [][]int{{0}, {0, 1}}
	s, err := ListColoring(g, 2, lists)
	if err != nil {
		t.Fatal(err)
	}
	// Vertex 0 must be 0, vertex 1 must then be 1: exactly one coloring.
	n, err := exact.CountFeasible(mustInstance(t, s))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("list colorings = %d, want 1", n)
	}
	if _, err := ListColoring(g, 2, [][]int{{0}}); err == nil {
		t.Error("wrong list count accepted")
	}
	if _, err := ListColoring(g, 2, [][]int{{0}, {5}}); err == nil {
		t.Error("color outside palette accepted")
	}
}

func TestListColoringIsSelfReductionOfColoring(t *testing.T) {
	// Pinning vertex 0 of a 3-coloring of P3 to color 0 equals list
	// coloring with lists {1,2} at vertex 1 and {0,1,2} at vertex 2.
	g := graph.Path(3)
	s, _ := Coloring(g, 3)
	in, _ := gibbs.NewInstance(s, dist.Config{0, dist.Unset, dist.Unset})
	m, err := exact.Marginal(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if m[0] != 0 {
		t.Errorf("pinned neighbor color has probability %v", m[0])
	}
	if !almostEq(m[1], 0.5, 1e-9) || !almostEq(m[2], 0.5, 1e-9) {
		t.Errorf("conditional marginal = %v", m)
	}
}

func TestMatchingModel(t *testing.T) {
	// Monomer-dimer on P3 (2 edges): Z = 1 + 2λ.
	g := graph.Path(3)
	m, err := Matching(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	z, err := exact.Partition(mustInstance(t, m.Spec))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(z, 5, 1e-9) {
		t.Errorf("monomer-dimer Z = %v, want 5", z)
	}
	// Matchings of C4 with λ=1: Z = 1 + 4 + 2 = 7.
	m2, _ := Matching(graph.Cycle(4), 1)
	z2, err := exact.Partition(mustInstance(t, m2.Spec))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(z2, 7, 1e-9) {
		t.Errorf("C4 matchings = %v, want 7", z2)
	}
	if _, err := Matching(g, 0); err == nil {
		t.Error("λ=0 accepted")
	}
}

func TestIsMatching(t *testing.T) {
	g := graph.Star(4) // edges (0,1), (0,2), (0,3) all share vertex 0
	m, _ := Matching(g, 1)
	if !m.IsMatching([]int{1, 0, 0}) {
		t.Error("single edge rejected")
	}
	if m.IsMatching([]int{1, 1, 0}) {
		t.Error("two edges sharing a vertex accepted")
	}
	if !m.IsMatching([]int{0, 0, 0}) {
		t.Error("empty matching rejected")
	}
}

func TestMatchingFeasibleConfigsAreMatchings(t *testing.T) {
	g := graph.Cycle(5)
	m, _ := Matching(g, 1)
	in := mustInstance(t, m.Spec)
	j, err := exact.JointDistribution(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range j.Support() {
		if !m.IsMatching(cfg) {
			t.Fatalf("feasible config %v is not a matching", cfg)
		}
	}
}

func TestHypergraphMatching(t *testing.T) {
	// Two disjoint hyperedges plus one overlapping both: matchings are
	// subsets of non-intersecting hyperedges.
	h := graph.NewHypergraph(6)
	_ = h.AddEdge(0, 1, 2) // e0
	_ = h.AddEdge(3, 4, 5) // e1 (disjoint from e0)
	_ = h.AddEdge(2, 3)    // e2 (hits both)
	hm, err := HypergraphMatching(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	n, err := exact.CountFeasible(mustInstance(t, hm.Spec))
	if err != nil {
		t.Fatal(err)
	}
	// Matchings: {}, {e0}, {e1}, {e2}, {e0,e1} = 5.
	if n != 5 {
		t.Errorf("hypergraph matchings = %d, want 5", n)
	}
	if _, err := HypergraphMatching(h, -1); err == nil {
		t.Error("negative activity accepted")
	}
}

func TestLambdaC(t *testing.T) {
	// λc(3) = 4, λc(4) = 27/16, λc(5) = 256/243... check known values.
	if !almostEq(LambdaC(3), 4, 1e-9) {
		t.Errorf("λc(3) = %v, want 4", LambdaC(3))
	}
	if !almostEq(LambdaC(4), 27.0/16, 1e-9) {
		t.Errorf("λc(4) = %v, want 27/16", LambdaC(4))
	}
	if !almostEq(LambdaC(5), math.Pow(4, 4)/math.Pow(3, 5), 1e-9) {
		t.Errorf("λc(5) = %v", LambdaC(5))
	}
	if !math.IsInf(LambdaC(2), 1) {
		t.Error("λc(2) should be +Inf")
	}
	// λc is decreasing in Δ.
	for d := 3; d < 20; d++ {
		if LambdaC(d+1) >= LambdaC(d) {
			t.Fatalf("λc not decreasing at Δ=%d", d)
		}
	}
}

func TestLambdaCHypergraph(t *testing.T) {
	// r=2 recovers the graph threshold.
	if !almostEq(LambdaCHypergraph(2, 3), LambdaC(3), 1e-9) {
		t.Errorf("λc(2,3) = %v, want λc(3)", LambdaCHypergraph(2, 3))
	}
	if LambdaCHypergraph(3, 4) >= LambdaCHypergraph(2, 4) {
		t.Error("threshold should shrink with rank")
	}
	if !math.IsInf(LambdaCHypergraph(3, 2), 1) {
		t.Error("Δ≤2 should be +Inf")
	}
}

func TestAlphaStar(t *testing.T) {
	a := AlphaStar()
	if !almostEq(a, math.Exp(1/a), 1e-9) {
		t.Errorf("α* = %v is not a fixed point of e^{1/x}", a)
	}
	if !almostEq(a, 1.76322, 1e-4) {
		t.Errorf("α* = %v, want ≈1.76322", a)
	}
}

func TestIsingUniquenessInterval(t *testing.T) {
	lo, hi := IsingUniquenessInterval(4)
	if !almostEq(lo, 0.5, 1e-12) || !almostEq(hi, 2, 1e-12) {
		t.Errorf("interval = (%v, %v), want (0.5, 2)", lo, hi)
	}
	if !almostEq(lo*hi, 1, 1e-12) {
		t.Error("interval should be symmetric around 1")
	}
	lo2, hi2 := IsingUniquenessInterval(2)
	if lo2 != 0 || !math.IsInf(hi2, 1) {
		t.Error("Δ≤2 should be the whole positive axis")
	}
}

func TestMatchingDecayRate(t *testing.T) {
	// Rate increases with λΔ and stays in [0, 1).
	prev := -1.0
	for _, d := range []int{2, 4, 8, 16, 32} {
		r := MatchingDecayRate(1, d)
		if r <= prev {
			t.Fatalf("rate not increasing at Δ=%d", d)
		}
		if r < 0 || r >= 1 {
			t.Fatalf("rate %v out of range", r)
		}
		prev = r
	}
	// 1/(1-rate) should scale like √Δ: check the ratio across a 4x degree
	// increase is close to 2.
	r4 := 1 / (1 - MatchingDecayRate(1, 16))
	r1 := 1 / (1 - MatchingDecayRate(1, 4))
	if ratio := r4 / r1; ratio < 1.6 || ratio > 2.4 {
		t.Errorf("√Δ scaling violated: ratio = %v", ratio)
	}
	if MatchingDecayRate(0, 4) != 0 || MatchingDecayRate(1, 0) != 0 {
		t.Error("degenerate parameters should give rate 0")
	}
}

func TestHardcoreDecayRate(t *testing.T) {
	// Below threshold: contraction < 1; above: 1.
	if r := HardcoreDecayRate(1, 5); r >= 1 || r <= 0 {
		t.Errorf("rate at λ=1, Δ=5 = %v", r)
	}
	if r := HardcoreDecayRate(5, 3); r != 1 {
		t.Errorf("rate above λc should be 1, got %v", r)
	}
	// Monotone in λ below threshold.
	if HardcoreDecayRate(0.5, 4) >= HardcoreDecayRate(1.5, 4) {
		t.Error("rate should grow with λ")
	}
	// Paths contract for every λ.
	if r := HardcoreDecayRate(10, 2); r >= 1 {
		t.Errorf("path rate = %v", r)
	}
}
