package exact

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func hardcoreInstance(t *testing.T, g *graph.Graph, lambda float64, pinned dist.Config) *gibbs.Instance {
	t.Helper()
	s, err := model.Hardcore(g, lambda)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(s, pinned)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestPartitionFibonacci(t *testing.T) {
	// Independent sets of P_n are counted by Fibonacci: 2, 3, 5, 8, 13...
	want := []int{2, 3, 5, 8, 13, 21}
	for i, w := range want {
		n := i + 1
		in := hardcoreInstance(t, graph.Path(n), 1, nil)
		z, err := Partition(in)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(z, float64(w), 1e-9) {
			t.Errorf("P%d: Z = %v, want %d", n, z, w)
		}
	}
}

func TestPartitionConditional(t *testing.T) {
	// P3 hardcore λ=1, pin middle vertex to 1: only {1} occupied-middle
	// configurations: (0,1,0) => Z = 1.
	pin := dist.Config{dist.Unset, 1, dist.Unset}
	in := hardcoreInstance(t, graph.Path(3), 1, pin)
	z, err := Partition(in)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(z, 1, 1e-9) {
		t.Errorf("conditional Z = %v, want 1", z)
	}
}

func TestPartitionBudgetExceeded(t *testing.T) {
	in := hardcoreInstance(t, graph.Path(30), 1, nil)
	if _, err := PartitionBudget(in, 1000); !errors.Is(err, ErrTooLarge) {
		t.Errorf("expected ErrTooLarge, got %v", err)
	}
}

func TestIsFeasible(t *testing.T) {
	// Adjacent occupied pins are infeasible.
	pin := dist.Config{1, 1, dist.Unset}
	in := hardcoreInstance(t, graph.Path(3), 1, pin)
	ok, err := IsFeasible(in)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("adjacent occupied pinning feasible")
	}
	ok, err = IsFeasible(hardcoreInstance(t, graph.Path(3), 1, nil))
	if err != nil || !ok {
		t.Errorf("empty pinning infeasible: %v %v", ok, err)
	}
}

func TestJointDistributionNormalized(t *testing.T) {
	in := hardcoreInstance(t, graph.Cycle(5), 2, nil)
	j, err := JointDistribution(in)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(j.Total(), 1, 1e-9) {
		t.Errorf("joint total = %v", j.Total())
	}
	if j.Len() != 11 {
		t.Errorf("support = %d, want 11 (independent sets of C5)", j.Len())
	}
}

func TestMarginalPinnedVertex(t *testing.T) {
	pin := dist.Config{1, dist.Unset, dist.Unset}
	in := hardcoreInstance(t, graph.Path(3), 1, pin)
	m, err := Marginal(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m[1] != 1 {
		t.Errorf("pinned marginal = %v", m)
	}
}

func TestMarginalMatchesJoint(t *testing.T) {
	in := hardcoreInstance(t, graph.Cycle(6), 1.3, nil)
	j, err := JointDistribution(in)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 6; v++ {
		direct, err := Marginal(in, v)
		if err != nil {
			t.Fatal(err)
		}
		fromJoint, err := j.Marginal(v, 2)
		if err != nil {
			t.Fatal(err)
		}
		tv, _ := dist.TV(direct, fromJoint)
		if tv > 1e-9 {
			t.Errorf("vertex %d: marginal mismatch %v vs %v", v, direct, fromJoint)
		}
	}
}

func TestMarginalErrors(t *testing.T) {
	in := hardcoreInstance(t, graph.Path(2), 1, nil)
	if _, err := Marginal(in, 9); err == nil {
		t.Error("bad vertex accepted")
	}
	// A pinned vertex returns its point mass by contract (Definition 2.2
	// assumes τ feasible, so the instance owner is responsible for
	// feasibility).
	pinOK := dist.Config{1, dist.Unset}
	inst := hardcoreInstance(t, graph.Path(2), 1, pinOK)
	m, err := Marginal(inst, 0)
	if err != nil || m[1] != 1 {
		t.Errorf("pinned vertex marginal = %v err %v", m, err)
	}
	// Querying a free vertex of an infeasible instance is an error (zero
	// total mass).
	pin := dist.Config{1, 1, dist.Unset}
	bad := hardcoreInstance(t, graph.Path(3), 1, pin)
	if _, err := Marginal(bad, 2); err == nil {
		t.Error("infeasible pinning produced a marginal")
	}
}

func TestBallMarginalSeparator(t *testing.T) {
	// On a path, pinning vertex 2 makes {0,1,2} independent of {3,4}: the
	// ball marginal on B = {0,1,2} must equal the global conditional.
	g := graph.Path(5)
	pin := dist.Config{dist.Unset, dist.Unset, 0, dist.Unset, dist.Unset}
	in := hardcoreInstance(t, g, 1.7, pin)
	want, err := Marginal(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BallMarginal(in, 0, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	tv, _ := dist.TV(want, got)
	if tv > 1e-9 {
		t.Errorf("ball marginal %v, want %v", got, want)
	}
}

func TestBallMarginalPinnedTarget(t *testing.T) {
	pin := dist.Config{1, dist.Unset, dist.Unset}
	in := hardcoreInstance(t, graph.Path(3), 1, pin)
	m, err := BallMarginal(in, 0, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m[1] != 1 {
		t.Errorf("pinned ball marginal = %v", m)
	}
}

// TestBallMarginalInfeasiblePinning: an inside-ball factor that the
// pinning alone sets to zero gives the zero-mass error, not a marginal.
func TestBallMarginalInfeasiblePinning(t *testing.T) {
	in := hardcoreInstance(t, graph.Path(3), 1, dist.Config{1, 1, dist.Unset})
	if _, err := BallMarginal(in, 2, []int{0, 1, 2}); !errors.Is(err, dist.ErrZeroMass) {
		t.Errorf("BallMarginal on an infeasible pinning = %v, want dist.ErrZeroMass", err)
	}
}

func TestBallMarginalTargetOutsideBall(t *testing.T) {
	in := hardcoreInstance(t, graph.Path(3), 1, nil)
	if _, err := BallMarginal(in, 0, []int{1, 2}); err == nil {
		t.Error("target outside ball accepted")
	}
}

func TestCountFeasibleColorings(t *testing.T) {
	s, err := model.Coloring(graph.Path(3), 2)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := gibbs.NewInstance(s, nil)
	n, err := CountFeasible(in)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("2-colorings of P3 = %d, want 2", n)
	}
}

func TestLogPartition(t *testing.T) {
	in := hardcoreInstance(t, graph.Path(2), 1, nil)
	lz, err := LogPartition(in)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(lz, math.Log(3), 1e-9) {
		t.Errorf("ln Z = %v, want ln 3", lz)
	}
	bad := hardcoreInstance(t, graph.Path(2), 1, dist.Config{1, 1})
	if _, err := LogPartition(bad); err == nil {
		t.Error("infeasible log partition succeeded")
	}
}

// Property: chain rule. For a random pinning order, the product of
// conditional marginals equals the joint probability (self-reducibility,
// Remark 2.2).
func TestChainRuleProperty(t *testing.T) {
	g := graph.Cycle(5)
	in := hardcoreInstance(t, g, 1.4, nil)
	j, err := JointDistribution(in)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg, err := j.Sample(r)
		if err != nil {
			return false
		}
		order := r.Perm(5)
		prod := 1.0
		cur := in
		for _, v := range order {
			m, err := Marginal(cur, v)
			if err != nil {
				return false
			}
			prod *= m[cfg[v]]
			cur, err = cur.Pin(v, cfg[v])
			if err != nil {
				return false
			}
		}
		return almostEq(prod, j.Prob(cfg), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(22))}); err != nil {
		t.Error(err)
	}
}

// Property: conditional independence across a separator (Proposition 2.1).
func TestConditionalIndependenceProperty(t *testing.T) {
	// Path 0-1-2-3-4; C = {2} separates A = {0,1} and B = {3,4}.
	g := graph.Path(5)
	in := hardcoreInstance(t, g, 1.2, nil)
	j, err := JointDistribution(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, c2 := range []int{0, 1} {
		// P[Y0=a, Y3=b | Y2=c] should factor.
		cond := dist.NewConfig(5)
		cond[2] = c2
		pAB := make(map[[2]int]float64)
		pA := make(map[int]float64)
		pB := make(map[int]float64)
		total := 0.0
		for _, cfg := range j.Support() {
			if cfg[2] != c2 {
				continue
			}
			p := j.Prob(cfg)
			total += p
			pAB[[2]int{cfg[0], cfg[3]}] += p
			pA[cfg[0]] += p
			pB[cfg[3]] += p
		}
		for ab, p := range pAB {
			want := pA[ab[0]] * pB[ab[1]] / total
			if !almostEq(p, want, 1e-9) {
				t.Errorf("c2=%d: P[%v]=%v want %v", c2, ab, p, want)
			}
		}
	}
}
