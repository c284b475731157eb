package gibbs

// batch_test.go pins the lattice kernels to the dist.Config referees on
// single-chain views: the sweep-plan weights and the bound heat-bath
// kernel at the list {0} must reproduce CondWeights and dist.SampleWeights
// bit for bit
// when only the updated vertex's neighborhood is assigned (the partial
// views of the LOCAL harnesses), FilterWeightBatch at one chain must
// reproduce FilterWeight, and the exact enumerator's lattice evaluators
// must match EvalFull and PartialWeight.

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/state"
)

// batchSpec builds a spec mixing unary, pairwise, and arity-3 factors on a
// small clique-friendly graph.
func batchSpec(t *testing.T) *Spec {
	t.Helper()
	g := graph.New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}, {1, 3}} {
		g.MustAddEdge(e[0], e[1])
	}
	q := 3
	tri := make([]float64, 27)
	for i := range tri {
		tri[i] = 0.2 + float64(i%7)*0.13
	}
	pair := []float64{1, 0.5, 0.25, 0.5, 1, 0.5, 0.25, 0.5, 1}
	factors := []Factor{
		{Scope: []int{0, 1, 2}, Table: tri, Name: "tri"},
		{Scope: []int{1, 3}, Table: pair, Name: "p13"},
		{Scope: []int{3, 4}, Table: pair, Name: "p34"},
		UnaryTable(2, []float64{1, 2, 0.5}, "field"),
		{Scope: []int{2, 3}, Eval: func(a []int) float64 {
			return 1 / (1 + float64(a[0]+2*a[1]))
		}, Name: "closure23"},
	}
	s, err := NewSpec(g, q, factors)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomChains draws B total configurations on n vertices.
func randomChains(n, q, B int, seed int64) []dist.Config {
	rng := rand.New(rand.NewSource(seed))
	chains := make([]dist.Config, B)
	for c := range chains {
		chains[c] = dist.NewConfig(n)
		for v := range chains[c] {
			chains[c][v] = rng.Intn(q)
		}
	}
	return chains
}

// chainList returns the ascending chain list {0, …, B−1}.
func chainList(B int) []int32 {
	all := make([]int32, B)
	for c := range all {
		all[c] = int32(c)
	}
	return all
}

// compilePlanOnly compiles s with its cond cache built under a zero entry
// cap, so every draw of the engine's kernel walks the sweep plan.
func compilePlanOnly(s *Spec, tableCap int) *Compiled {
	defer SetCondCapForTest(0, 0)()
	c := CompileCap(s, tableCap)
	c.Cond()
	return c
}

// neighborhoodView returns cfg restricted to v and the scope vertices of
// v's factors, every other vertex Unset — what a LOCAL node holds when it
// updates v.
func neighborhoodView(eng *Compiled, cfg dist.Config, v int) dist.Config {
	view := dist.NewConfig(len(cfg))
	view[v] = cfg[v]
	for _, fi := range eng.FactorsAt(v) {
		for _, u := range eng.factors[fi].scope {
			view[u] = cfg[u]
		}
	}
	return view
}

// testSingleChainViews drives the one-chain kernels over partial views:
// for every vertex of random configurations, CondWeightsBatchPlan at
// (0, 1) must equal CondWeights, and the kernel bound to the view must
// draw at the list {0} the symbol dist.SampleWeights draws from those
// weights for the same uniform, with the cache on and off.
func testSingleChainViews(t *testing.T, s *Spec, tableCap int, wide bool) {
	t.Helper()
	engs := []*Compiled{CompileCap(s, tableCap), compilePlanOnly(s, tableCap)}
	n, q := engs[0].N(), engs[0].Q()
	if wide {
		defer state.SetCompactLimitForTest(0)()
	}
	buf := make([]float64, q)
	ref := make([]float64, q)
	sc := NewBatchScratch(1)
	rng := dist.NewXoshiro(9, 0)
	for trial, cfg := range randomChains(n, q, 12, 9) {
		eng := engs[trial%2]
		for v := 0; v < n; v++ {
			view := neighborhoodView(eng, cfg, v)
			lat, err := state.Pack(n, q, []dist.Config{view})
			if err != nil {
				t.Fatal(err)
			}
			if lat.Compact() == wide {
				t.Fatalf("lattice Compact() = %v with wide=%v", lat.Compact(), wide)
			}
			want, err := eng.CondWeights(view, v, ref)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.CondWeightsBatchPlan(lat, v, 0, 1, buf, nil)
			if err != nil {
				t.Fatal(err)
			}
			for x := 0; x < q; x++ {
				if got[x] != want[x] {
					t.Fatalf("v=%d x=%d: plan %v != CondWeights %v", v, x, got[x], want[x])
				}
			}
			shadow := rng
			wx, err := dist.SampleWeights(want, &shadow)
			if err != nil {
				t.Fatal(err)
			}
			kernel, err := eng.BindVertexSubset(lat)
			if err != nil {
				t.Fatal(err)
			}
			if err := kernel(v, []int32{0}, buf, sc, &rng); err != nil {
				t.Fatal(err)
			}
			if gx := lat.Get(v, 0); gx != wx || rng != shadow {
				t.Fatalf("trial %d v=%d: kernel drew %d, SampleWeights %d (streams equal: %v)", trial, v, gx, wx, rng == shadow)
			}
		}
	}
}

func TestCondWeightsBatchMatchesSingle(t *testing.T) {
	s := batchSpec(t)
	for _, rep := range []struct {
		name string
		wide bool
	}{{"compact", false}, {"wide", true}} {
		t.Run(rep.name, func(t *testing.T) {
			t.Run("tabled", func(t *testing.T) { testSingleChainViews(t, s, DefaultTableCap, rep.wide) })
			// A cap of 0 forces every closure factor onto the fallback path
			// while explicit tables stay tabled — both kernel paths in one
			// engine.
			t.Run("closure-fallback", func(t *testing.T) { testSingleChainViews(t, s, 0, rep.wide) })
		})
	}
}

// TestLatticePartialKernels pins the exact enumerator's one-chain cell
// evaluators — EvalFullCells1, PartialWeightCells1 and
// PartialWeightAtCells1 — to their dist.Config counterparts EvalFull,
// PartialWeight and partialWeightAt on partial configurations, for both
// cell widths.
func TestLatticePartialKernels(t *testing.T) {
	eng := Compile(batchSpec(t))
	n, q := eng.N(), eng.Q()
	rng := rand.New(rand.NewSource(4))
	for _, wide := range []bool{false, true} {
		restore := func() {}
		if wide {
			restore = state.SetCompactLimitForTest(0)
		}
		for trial := 0; trial < 50; trial++ {
			cfg := dist.NewConfig(n)
			for v := range cfg {
				if rng.Intn(3) > 0 {
					cfg[v] = rng.Intn(q)
				}
			}
			lat, err := state.Pack(n, q, []dist.Config{cfg})
			if err != nil {
				t.Fatal(err)
			}
			if lat.Compact() == wide {
				t.Fatalf("lattice compact=%v, want %v", lat.Compact(), !wide)
			}
			if u8 := lat.Raw8(); u8 != nil {
				checkCells1(t, eng, u8, cfg)
			} else {
				checkCells1(t, eng, lat.RawWide(), cfg)
			}
		}
		restore()
	}
}

// checkCells1 compares the cell evaluators on cells, a one-chain packing
// of cfg, with the dist.Config evaluators on cfg.
func checkCells1[T state.Cells](t *testing.T, eng *Compiled, cells []T, cfg dist.Config) {
	t.Helper()
	for i := range eng.factors {
		wv, wok := eng.EvalFull(i, cfg)
		if lv, lok := EvalFullCells1(eng, i, cells); wv != lv || wok != lok {
			t.Fatalf("factor %d on %v: cells (%v,%v) != config (%v,%v)", i, cfg, lv, lok, wv, wok)
		}
	}
	for v := range cfg {
		if got, want := PartialWeightAtCells1(eng, cells, v), eng.partialWeightAt(cfg, v); got != want {
			t.Fatalf("partialWeightAt(%d) on %v: cells %v != config %v", v, cfg, got, want)
		}
	}
	if got, want := PartialWeightCells1(eng, cells), eng.PartialWeight(cfg); got != want {
		t.Fatalf("PartialWeight on %v: cells %v != config %v", cfg, got, want)
	}
}

func TestCondWeightsBatchRejectsBadInput(t *testing.T) {
	eng := Compile(batchSpec(t))
	n, q := eng.N(), eng.Q()
	const B = 3
	full, err := state.Pack(n, q, randomChains(n, q, B, 3))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, B*q)
	if _, err := eng.CondWeightsBatchPlan(full, -1, 0, B, buf, nil); err == nil {
		t.Error("negative vertex accepted")
	}
	if _, err := eng.CondWeightsBatchPlan(full, n, 0, B, buf, nil); err == nil {
		t.Error("vertex past n accepted")
	}
	if _, err := eng.CondWeightsBatchPlan(full, 0, 2, 1, buf, nil); err == nil {
		t.Error("empty chain range accepted")
	}
	if _, err := eng.CondWeightsBatchPlan(full, 0, 0, B+1, buf, nil); err == nil {
		t.Error("chain range past B accepted")
	}
	short, err := state.New(n-1, B, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CondWeightsBatchPlan(short, 0, 0, B, buf, nil); err == nil {
		t.Error("short lattice accepted")
	}
	if _, err := eng.CondWeightsBatchPlan(full, 0, 0, B, buf[:1], nil); err == nil {
		t.Error("short buffer accepted")
	}
}

// TestFilterWeightLatticeMatchesConfig pins the one-chain lattice filter
// the LOCAL harness runs — FilterWeightBatch over (0, 1) — to FilterWeight
// on random (old, proposal) pairs and random toggled subsets (the empty
// one included), both representations. Closure-backed factors are
// rejected with ErrNotTabled rather than evaluated.
func TestFilterWeightLatticeMatchesConfig(t *testing.T) {
	s := batchSpec(t)
	rng := dist.NewXoshiro(12, 0)
	sc := NewBatchScratch(1)
	out := make([]float64, 1)
	for _, cap := range []int{DefaultTableCap, 0} {
		eng := CompileCap(s, cap)
		n, q := eng.N(), eng.Q()
		for _, wide := range []bool{false, true} {
			restore := func() {}
			if wide {
				restore = state.SetCompactLimitForTest(0)
			}
			for trial := 0; trial < 30; trial++ {
				old := randomChains(n, q, 1, int64(100+trial))[0]
				prop := randomChains(n, q, 1, int64(200+trial))[0]
				lo, err := state.Pack(n, q, []dist.Config{old})
				if err != nil {
					t.Fatal(err)
				}
				lp, err := state.Pack(n, q, []dist.Config{prop})
				if err != nil {
					t.Fatal(err)
				}
				for i, f := range s.Factors {
					verts := make([]int, 0, len(f.Scope))
					for _, u := range f.Scope {
						if !slices.Contains(verts, u) && rng.IntN(2) == 0 {
							verts = append(verts, u)
						}
					}
					err := eng.FilterWeightBatch(i, lo, lp, 0, 1, verts, out, sc)
					if eng.factors[i].table == nil && len(verts) > 0 {
						if !errors.Is(err, ErrNotTabled) {
							t.Fatalf("cap=%d factor %d: closure factor err = %v, want ErrNotTabled", cap, i, err)
						}
						continue
					}
					if err != nil {
						t.Fatal(err)
					}
					want, err := eng.FilterWeight(i, old, prop, verts)
					if err != nil {
						t.Fatal(err)
					}
					if out[0] != want {
						t.Fatalf("cap=%d wide=%v factor %d verts %v: lattice %v != config %v", cap, wide, i, verts, out[0], want)
					}
				}
			}
			restore()
		}
	}
}
