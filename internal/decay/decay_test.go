package decay

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
)

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

func TestSAWExactOnTrees(t *testing.T) {
	// On trees the SAW tree is the tree itself: full-depth recursion must
	// match brute force exactly.
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"path6", graph.Path(6)},
		{"star5", graph.Star(5)},
		{"btree", graph.CompleteTree(2, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			for _, lambda := range []float64{0.4, 1, 2.5} {
				est, err := NewHardcoreSAW(g, lambda)
				if err != nil {
					t.Fatal(err)
				}
				in := hardcoreInstance(t, g, lambda, nil)
				for v := 0; v < g.N(); v++ {
					want, err := exact.Marginal(in, v)
					if err != nil {
						t.Fatal(err)
					}
					got, err := est.Marginal(in.Pinned, v, g.N())
					if err != nil {
						t.Fatal(err)
					}
					tv, _ := dist.TV(want, got)
					if tv > 1e-9 {
						t.Fatalf("λ=%v v=%d: SAW %v, exact %v", lambda, v, got, want)
					}
				}
			}
		})
	}
}

func TestSAWWeitzTheoremOnCyclicGraphs(t *testing.T) {
	// Weitz's theorem: at full depth (length of longest self-avoiding
	// walk), the SAW-tree marginal equals the true marginal on ANY graph.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		g := graph.ErdosRenyi(8, 0.35, rng)
		lambda := 0.3 + rng.Float64()*1.5
		est, err := NewHardcoreSAW(g, lambda)
		if err != nil {
			t.Fatal(err)
		}
		in := hardcoreInstance(t, g, lambda, nil)
		for v := 0; v < g.N(); v++ {
			want, err := exact.Marginal(in, v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := est.Marginal(in.Pinned, v, g.N()+1)
			if err != nil {
				t.Fatal(err)
			}
			tv, _ := dist.TV(want, got)
			if tv > 1e-9 {
				t.Fatalf("trial %d λ=%v v=%d: SAW %v, exact %v (graph %v)",
					trial, lambda, v, got, want, g.Edges())
			}
		}
	}
}

func TestSAWWithPinnedBoundary(t *testing.T) {
	// Conditioning must be respected: pin both neighbors of the center of
	// P5 and check the conditional marginal.
	g := graph.Path(5)
	lambda := 1.5
	est, err := NewHardcoreSAW(g, lambda)
	if err != nil {
		t.Fatal(err)
	}
	pin := dist.NewConfig(5)
	pin[1] = 0
	pin[3] = 0
	in := hardcoreInstance(t, g, lambda, pin)
	want, err := exact.Marginal(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Marginal(pin, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	tv, _ := dist.TV(want, got)
	if tv > 1e-9 {
		t.Fatalf("conditional SAW %v, exact %v", got, want)
	}
	// Pinning occupied neighbors forces the center out.
	pin2 := dist.NewConfig(5)
	pin2[1] = 1
	got2, err := est.Marginal(pin2, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got2[model.In] > 1e-12 {
		t.Fatalf("occupied neighbor not excluded: %v", got2)
	}
}

func TestSAWPinnedVertexReturnsPointMass(t *testing.T) {
	g := graph.Path(3)
	est, _ := NewHardcoreSAW(g, 1)
	pin := dist.NewConfig(3)
	pin[0] = 1
	m, err := est.Marginal(pin, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m[1] != 1 {
		t.Fatalf("pinned marginal = %v", m)
	}
}

func TestSAWTruncationErrorDecays(t *testing.T) {
	// In the uniqueness regime the truncation error must decay
	// geometrically with depth.
	g := graph.Cycle(20)
	lambda := 1.0 // uniqueness on Δ=2 for every λ
	est, _ := NewHardcoreSAW(g, lambda)
	in := hardcoreInstance(t, g, lambda, nil)
	want, err := exact.Marginal(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	var errs []float64
	for _, depth := range []int{2, 4, 8, 16} {
		got, err := est.Marginal(in.Pinned, 0, depth)
		if err != nil {
			t.Fatal(err)
		}
		tv, _ := dist.TV(want, got)
		errs = append(errs, tv)
	}
	for i := 1; i < len(errs); i++ {
		if errs[i] > errs[i-1]+1e-12 && errs[i-1] > 1e-13 {
			t.Fatalf("truncation error not decreasing: %v", errs)
		}
	}
	if errs[len(errs)-1] > 1e-4 {
		t.Fatalf("depth-16 error too large: %v", errs)
	}
}

func TestTwoSpinSAWIsingExact(t *testing.T) {
	// Antiferromagnetic Ising on a tree: SAW = exact.
	g := graph.CompleteTree(2, 2)
	p := model.TwoSpinParams{Beta: 0.6, Gamma: 0.6, Lambda: 1.2}
	est, err := NewTwoSpinSAW(g, p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := model.TwoSpin(g, p)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := gibbs.NewInstance(s, nil)
	for v := 0; v < g.N(); v++ {
		want, err := exact.Marginal(in, v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := est.Marginal(in.Pinned, v, g.N())
		if err != nil {
			t.Fatal(err)
		}
		tv, _ := dist.TV(want, got)
		if tv > 1e-9 {
			t.Fatalf("Ising v=%d: SAW %v, exact %v", v, got, want)
		}
	}
}

func TestTwoSpinSAWIsingCycle(t *testing.T) {
	// Weitz reduction holds for general 2-spin systems too.
	g := graph.Cycle(6)
	for _, p := range []model.TwoSpinParams{
		{Beta: 0.5, Gamma: 0.5, Lambda: 1},
		{Beta: 0.8, Gamma: 0.3, Lambda: 1.7},
		{Beta: 1, Gamma: 0, Lambda: 2},
	} {
		est, err := NewTwoSpinSAW(g, p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := model.TwoSpin(g, p)
		if err != nil {
			t.Fatal(err)
		}
		in, _ := gibbs.NewInstance(s, nil)
		for v := 0; v < g.N(); v++ {
			want, err := exact.Marginal(in, v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := est.Marginal(in.Pinned, v, 2*g.N())
			if err != nil {
				t.Fatal(err)
			}
			tv, _ := dist.TV(want, got)
			if tv > 1e-9 {
				t.Fatalf("2-spin %+v v=%d: SAW %v, exact %v", p, v, got, want)
			}
		}
	}
}

func TestSAWInvalidInputs(t *testing.T) {
	g := graph.Path(3)
	est, _ := NewHardcoreSAW(g, 1)
	if _, err := est.Marginal(dist.NewConfig(3), 9, 3); err == nil {
		t.Error("bad vertex accepted")
	}
	if _, err := est.Marginal(dist.NewConfig(2), 0, 3); err == nil {
		t.Error("short pinning accepted")
	}
	if _, err := NewHardcoreSAW(g, -1); err == nil {
		t.Error("negative fugacity accepted")
	}
}

func TestMatchingEstimatorExactOnTrees(t *testing.T) {
	// Path trees of trees are the trees themselves: the BGKNT recursion is
	// exact at full depth.
	for _, g := range []*graph.Graph{graph.Path(6), graph.Star(6), graph.CompleteTree(2, 3)} {
		for _, lambda := range []float64{0.5, 1, 3} {
			m, err := model.Matching(g, lambda)
			if err != nil {
				t.Fatal(err)
			}
			est := NewMatchingEstimator(m)
			in, _ := gibbs.NewInstance(m.Spec, nil)
			for i := range m.EdgeList {
				want, err := exact.Marginal(in, i)
				if err != nil {
					t.Fatal(err)
				}
				got, err := est.Marginal(in.Pinned, i, g.N())
				if err != nil {
					t.Fatal(err)
				}
				tv, _ := dist.TV(want, got)
				if tv > 1e-9 {
					t.Fatalf("matching λ=%v edge %d: est %v, exact %v", lambda, i, got, want)
				}
			}
		}
	}
}

func TestMatchingEstimatorGodsilOnCycles(t *testing.T) {
	// Godsil's theorem: exact at full depth on any graph.
	for _, g := range []*graph.Graph{graph.Cycle(5), graph.Cycle(6), graph.Complete(4)} {
		lambda := 1.3
		m, err := model.Matching(g, lambda)
		if err != nil {
			t.Fatal(err)
		}
		est := NewMatchingEstimator(m)
		in, _ := gibbs.NewInstance(m.Spec, nil)
		for i := range m.EdgeList {
			want, err := exact.Marginal(in, i)
			if err != nil {
				t.Fatal(err)
			}
			got, err := est.Marginal(in.Pinned, i, g.N()+1)
			if err != nil {
				t.Fatal(err)
			}
			tv, _ := dist.TV(want, got)
			if tv > 1e-9 {
				t.Fatalf("graph %v edge %d: est %v, exact %v", g, i, got, want)
			}
		}
	}
}

func TestMatchingEstimatorWithPins(t *testing.T) {
	// Pin one edge In; adjacent edges must then be Out.
	g := graph.Path(4) // edges: (0,1)=0, (1,2)=1, (2,3)=2
	m, _ := model.Matching(g, 1)
	est := NewMatchingEstimator(m)
	pin := dist.NewConfig(3)
	pin[1] = model.In
	got, err := est.Marginal(pin, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got[model.In] > 1e-12 {
		t.Fatalf("edge adjacent to matched edge: %v", got)
	}
	// Compare against exact conditional.
	in, _ := gibbs.NewInstance(m.Spec, pin)
	want, err := exact.Marginal(in, 2)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := est.Marginal(pin, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	tv, _ := dist.TV(want, got2)
	if tv > 1e-9 {
		t.Fatalf("pinned matching marginal %v, want %v", got2, want)
	}
	// Inconsistent pins detected.
	bad := dist.NewConfig(3)
	bad[0] = model.In
	bad[1] = model.In
	if _, err := est.Marginal(bad, 2, 5); err == nil {
		t.Error("conflicting pinned-In edges accepted")
	}
}

func TestColoringEstimatorExactOnTrees(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Path(5), graph.Star(5), graph.CompleteTree(2, 2)} {
		q := 4
		est, err := NewColoringEstimator(g, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := model.Coloring(g, q)
		if err != nil {
			t.Fatal(err)
		}
		in, _ := gibbs.NewInstance(s, nil)
		for v := 0; v < g.N(); v++ {
			want, err := exact.Marginal(in, v)
			if err != nil {
				t.Fatal(err)
			}
			got, err := est.Marginal(in.Pinned, v, g.N())
			if err != nil {
				t.Fatal(err)
			}
			tv, _ := dist.TV(want, got)
			if tv > 1e-9 {
				t.Fatalf("coloring v=%d: est %v, exact %v", v, got, want)
			}
		}
	}
}

func TestColoringEstimatorConditional(t *testing.T) {
	// P3 with q=3, pin ends to colors 0 and 1; middle marginal exact.
	g := graph.Path(3)
	est, _ := NewColoringEstimator(g, 3, nil)
	pin := dist.Config{0, dist.Unset, 1}
	s, _ := model.Coloring(g, 3)
	in, _ := gibbs.NewInstance(s, pin)
	want, err := exact.Marginal(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Marginal(pin, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	tv, _ := dist.TV(want, got)
	if tv > 1e-9 {
		t.Fatalf("conditional coloring %v, want %v", got, want)
	}
}

func TestColoringEstimatorApproxOnTriangleFree(t *testing.T) {
	// On triangle-free graphs with q ≥ 2Δ the truncated recursion should be
	// close to exact (GKM regime: α* ≈ 1.763 < 2).
	g := graph.Cycle(8)
	q := 5
	est, _ := NewColoringEstimator(g, q, nil)
	s, _ := model.Coloring(g, q)
	in, _ := gibbs.NewInstance(s, nil)
	want, err := exact.Marginal(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := est.Marginal(in.Pinned, 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	tv, _ := dist.TV(want, got)
	if tv > 0.01 {
		t.Fatalf("triangle-free coloring estimate off by %v", tv)
	}
}

func TestColoringEstimatorErrors(t *testing.T) {
	g := graph.Path(2)
	if _, err := NewColoringEstimator(g, 0, nil); err == nil {
		t.Error("q=0 accepted")
	}
	if _, err := NewColoringEstimator(g, 2, [][]int{{0}}); err == nil {
		t.Error("bad list length accepted")
	}
	est, _ := NewColoringEstimator(g, 2, nil)
	if _, err := est.Marginal(dist.NewConfig(2), 7, 2); err == nil {
		t.Error("bad vertex accepted")
	}
	if _, err := est.Marginal(dist.NewConfig(1), 0, 2); err == nil {
		t.Error("short pinning accepted")
	}
}

func TestDepthForError(t *testing.T) {
	d1, err := DepthForError(0.5, 0.01, 100)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DepthForError(0.5, 0.0001, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d1 {
		t.Errorf("smaller error should need more depth: %d vs %d", d1, d2)
	}
	// Bound is sufficient: n·α^t ≤ δ.
	if 100*math.Pow(0.5, float64(d1)) > 0.01+1e-12 {
		t.Errorf("depth %d insufficient", d1)
	}
	if _, err := DepthForError(1.0, 0.1, 10); err == nil {
		t.Error("non-contracting rate accepted")
	}
	if _, err := DepthForError(0.5, 0, 10); err == nil {
		t.Error("zero error accepted")
	}
	if d, err := DepthForError(0, 0.1, 10); err != nil || d != 1 {
		t.Errorf("zero rate should give depth 1: %d %v", d, err)
	}
}

// Property: for random pinnings on a tree, SAW marginals match exact
// conditionals (strong form of Weitz on trees).
func TestSAWRandomPinningsProperty(t *testing.T) {
	g := graph.CompleteTree(2, 3)
	lambda := 1.1
	est, _ := NewHardcoreSAW(g, lambda)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		pin := dist.NewConfig(g.N())
		// Random feasible pinning on a random subset.
		for v := 0; v < g.N(); v++ {
			if r.Intn(3) == 0 {
				pin[v] = r.Intn(2)
				// Keep local feasibility.
				ok := true
				for _, u := range g.Neighbors(v) {
					if pin[v] == 1 && pin[u] == 1 {
						ok = false
					}
				}
				if !ok {
					pin[v] = 0
				}
			}
		}
		s, err := model.Hardcore(g, lambda)
		if err != nil {
			return false
		}
		in, err := gibbs.NewInstance(s, pin)
		if err != nil {
			return false
		}
		v := r.Intn(g.N())
		if pin[v] != dist.Unset {
			return true
		}
		want, err := exact.Marginal(in, v)
		if err != nil {
			return false
		}
		got, err := est.Marginal(pin, v, g.N())
		if err != nil {
			return false
		}
		tv, _ := dist.TV(want, got)
		return tv < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(33))}); err != nil {
		t.Error(err)
	}
}
