package gibbs

// plan_test.go pins the compiled sweep plans to the referees:
// CondWeightsBatchPlan must reproduce CondWeights bit-for-bit per chain on
// the table and closure paths and on both cell representations, the bound
// heat-bath kernel called the chromatic engine's way — one vertex over a
// slice of one ascending chain list — must draw exactly the symbols
// dist.SampleWeights draws from CondWeights for the same uniform variates,
// and the plan builder must fold unary prefixes into priors without
// disturbing factor order.

import (
	"errors"
	"testing"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/state"
)

// unaryFirstSpec puts a unary factor at the head of every vertex's factor
// list (the builders' layout), so the prior prefix fold is exercised, and
// keeps a trailing unary and closure to exercise mid-stream ops too.
func unaryFirstSpec(t *testing.T) *Spec {
	t.Helper()
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		g.MustAddEdge(e[0], e[1])
	}
	pair := []float64{1, 0.7, 0.7, 1.4}
	factors := []Factor{
		UnaryTable(0, []float64{1, 0.4}, "u0"),
		UnaryTable(1, []float64{0.9, 1.1}, "u1a"),
		UnaryTable(1, []float64{2, 0.25}, "u1b"),
		UnaryTable(2, []float64{1, 3}, "u2"),
		UnaryTable(3, []float64{0.5, 1}, "u3"),
		{Scope: []int{0, 1}, Table: pair, Name: "p01"},
		{Scope: []int{1, 2}, Table: pair, Name: "p12"},
		UnaryTable(2, []float64{1.5, 0.8}, "u2-late"),
		{Scope: []int{2, 3}, Eval: func(a []int) float64 {
			return 1 / (1 + float64(2*a[0]+a[1]))
		}, Name: "closure23"},
	}
	s, err := NewSpec(g, 2, factors)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// pairSpecQ3 is a purely pairwise q=3 spec (unary prefix + pair tables),
// landing every vertex on the q=3 pair-only draw of the kernel.
func pairSpecQ3(t *testing.T) *Spec {
	t.Helper()
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		g.MustAddEdge(e[0], e[1])
	}
	pair := []float64{1, 0.5, 0.8, 0.5, 1, 0.3, 0.8, 0.3, 1}
	factors := []Factor{
		UnaryTable(0, []float64{1, 2, 0.5}, "u0"),
		UnaryTable(2, []float64{0.25, 1, 4}, "u2"),
		{Scope: []int{0, 1}, Table: pair, Name: "p01"},
		{Scope: []int{1, 2}, Table: pair, Name: "p12"},
		{Scope: []int{2, 3}, Table: pair, Name: "p23"},
		{Scope: []int{3, 0}, Table: pair, Name: "p30"},
	}
	s, err := NewSpec(g, 3, factors)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testPlanAgainstCondWeights(t *testing.T, eng *Compiled, wide bool) {
	t.Helper()
	n, q := eng.N(), eng.Q()
	const B = 7
	chains := randomChains(n, q, B, 23)
	if wide {
		defer state.SetCompactLimitForTest(0)()
	}
	lat, err := state.Pack(n, q, chains)
	if err != nil {
		t.Fatal(err)
	}
	if lat.Compact() == wide {
		t.Fatalf("lattice Compact() = %v with wide=%v", lat.Compact(), wide)
	}
	sc := NewBatchScratch(B)
	ref := make([]float64, q)
	got := make([]float64, B*q)
	for v := 0; v < n; v++ {
		for _, span := range [][2]int{{0, B}, {2, 5}, {B - 1, B}} {
			c0, c1 := span[0], span[1]
			w, err := eng.CondWeightsBatchPlan(lat, v, c0, c1, got, sc)
			if err != nil {
				t.Fatal(err)
			}
			for c := c0; c < c1; c++ {
				want, err := eng.CondWeights(chains[c], v, ref)
				if err != nil {
					t.Fatal(err)
				}
				for x := 0; x < q; x++ {
					if w[(c-c0)*q+x] != want[x] {
						t.Fatalf("v=%d span=[%d,%d) chain %d x=%d: plan %v != CondWeights %v", v, c0, c1, c, x, w[(c-c0)*q+x], want[x])
					}
				}
			}
		}
	}
}

// TestPlanWeightsMatchBatch pins the planned batch rows of a multi-chain
// lattice, over full, interior and one-chain spans, to CondWeights on each
// chain's configuration.
func TestPlanWeightsMatchBatch(t *testing.T) {
	for _, spec := range []struct {
		name string
		s    *Spec
	}{{"mixed-arity", batchSpec(t)}, {"unary-first", unaryFirstSpec(t)}} {
		t.Run(spec.name, func(t *testing.T) {
			for _, rep := range []struct {
				name string
				wide bool
			}{{"compact", false}, {"wide", true}} {
				t.Run(rep.name, func(t *testing.T) {
					t.Run("tabled", func(t *testing.T) { testPlanAgainstCondWeights(t, Compile(spec.s), rep.wide) })
					t.Run("closure-fallback", func(t *testing.T) { testPlanAgainstCondWeights(t, CompileCap(spec.s, 0), rep.wide) })
				})
			}
		})
	}
}

// TestPlanFoldsUnaryPrefix is the white-box structural check: with the
// builders' unary-first factor layout every vertex plan gets a non-nil
// prior, mid-stream unaries stay ops, and op count matches the non-unary
// factor count.
func TestPlanFoldsUnaryPrefix(t *testing.T) {
	eng := Compile(unaryFirstSpec(t))
	p := eng.Plan()
	if p != eng.Plan() {
		t.Fatal("Plan() not cached")
	}
	for v := 0; v < eng.N(); v++ {
		if p.verts[v].prior == nil {
			t.Errorf("vertex %d: unary prefix not folded into prior", v)
		}
	}
	// Vertex 1 carries two prefix unaries (u1a, u1b) folded together.
	if got := len(p.verts[1].ops); got != 2 {
		t.Errorf("vertex 1 ops = %d, want 2 (p01, p12)", got)
	}
	// Vertex 2's late unary sits after pair p12, so it must stay an op;
	// closure23 is enumerated into a table under the default cap (opPair)
	// and stays a closure op when compilation is capped off.
	checkKinds := func(eng *Compiled, want []planOpKind) {
		t.Helper()
		var kinds []planOpKind
		for _, op := range eng.Plan().verts[2].ops {
			kinds = append(kinds, op.kind)
		}
		if len(kinds) != len(want) {
			t.Fatalf("vertex 2 ops = %v, want %v", kinds, want)
		}
		for i := range want {
			if kinds[i] != want[i] {
				t.Fatalf("vertex 2 op %d kind = %d, want %d", i, kinds[i], want[i])
			}
		}
	}
	checkKinds(eng, []planOpKind{opPair, opUnary, opPair})
	checkKinds(CompileCap(unaryFirstSpec(t), 0), []planOpKind{opPair, opUnary, opClosure})
}

// TestPlanOpSize guards the op layout: the draw paths scan a vertex's ops,
// and what they read of an op — kind, u, su, sv, mo and table, plus the
// side-slab index in their padding — fits 48 bytes. Anything more belongs
// in the plan's side slab.
func TestPlanOpSize(t *testing.T) {
	if got := unsafe.Sizeof(planOp{}); got > 48 {
		t.Fatalf("planOp is %d bytes, want at most 48", got)
	}
}

// TestSampleVertexBatchMatchesSampleWeights pins the kernel's
// vertex-batch call — the chromatic engine's: one vertex over the slice
// [c0:c1] of one ascending list {0, …, B−1}, whole, interior and one-chain
// — to dist.SampleWeights semantics, with the cache on and off: with
// identical uniform variates the kernel must write exactly the symbol the
// reference walk selects and consume one uniform per chain.
func TestSampleVertexBatchMatchesSampleWeights(t *testing.T) {
	// unaryFirstSpec takes the q=2 pair-only draw, pairSpecQ3 the q=3 one,
	// and batchSpec (arity-3 + closure factors) the buffered walk.
	for _, spec := range []struct {
		name string
		s    *Spec
	}{{"q2", unaryFirstSpec(t)}, {"q3-pair", pairSpecQ3(t)}, {"q3-mixed", batchSpec(t)}} {
		t.Run(spec.name, func(t *testing.T) {
			for _, eng := range []*Compiled{Compile(spec.s), compilePlanOnly(spec.s, DefaultTableCap)} {
				n, q := eng.N(), eng.Q()
				const B = 6
				lat, err := state.Pack(n, q, randomChains(n, q, B, 77))
				if err != nil {
					t.Fatal(err)
				}
				if err := lat.CheckAssigned(); err != nil {
					t.Fatal(err)
				}
				kernel, err := eng.BindVertexSubset(lat)
				if err != nil {
					t.Fatal(err)
				}
				all := chainList(B)
				sc := NewBatchScratch(B)
				buf := make([]float64, B*q)
				ref := make([]float64, q)
				rng := dist.NewXoshiro(5, 0)
				spans := [][2]int{{0, B}, {2, 5}, {B - 1, B}}
				for sweep := 0; sweep < 20; sweep++ {
					for v := 0; v < n; v++ {
						c0, c1 := spans[(sweep+v)%len(spans)][0], spans[(sweep+v)%len(spans)][1]
						// The reference draw replays the same generator against
						// the referee weights: copy the value-type RNG before
						// the kernel consumes it.
						shadow := rng
						want := make([]int, B)
						for c := c0; c < c1; c++ {
							w, err := eng.CondWeights(lat.Chain(c), v, ref)
							if err != nil {
								t.Fatal(err)
							}
							if want[c], err = dist.SampleWeights(w, &shadow); err != nil {
								t.Fatal(err)
							}
						}
						if err := kernel(v, all[c0:c1], buf, sc, &rng); err != nil {
							t.Fatal(err)
						}
						if rng != shadow {
							t.Fatalf("sweep %d v=%d: uniform consumption diverged", sweep, v)
						}
						for c := c0; c < c1; c++ {
							if got := lat.Get(v, c); got != want[c] {
								t.Fatalf("sweep %d v=%d chain %d: kernel drew %d, reference walk %d", sweep, v, c, got, want[c])
							}
						}
					}
				}
			}
		})
	}
}

// TestSampleVertexBatchZeroMass checks the cold error path of the kernel's
// vertex-batch call, cached and planned: an all-zero weight row surfaces
// dist.ErrZeroMass wrapped with the (vertex, chain) site.
func TestSampleVertexBatchZeroMass(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	s, err := NewSpec(g, 2, []Factor{
		{Scope: []int{0, 1}, Table: []float64{0, 0, 0, 0}, Name: "dead"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []*Compiled{Compile(s), compilePlanOnly(s, DefaultTableCap)} {
		lat, err := state.Pack(2, 2, randomChains(2, 2, 3, 1))
		if err != nil {
			t.Fatal(err)
		}
		kernel, err := eng.BindVertexSubset(lat)
		if err != nil {
			t.Fatal(err)
		}
		rng := dist.NewXoshiro(1, 0)
		err = kernel(0, chainList(3), make([]float64, 3*2), NewBatchScratch(3), &rng)
		if !errors.Is(err, dist.ErrZeroMass) {
			t.Fatalf("zero-mass row: err = %v, want dist.ErrZeroMass", err)
		}
	}
}
