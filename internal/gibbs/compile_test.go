package gibbs

import (
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
)

// randomFeasibleHardcore draws a random locally feasible hardcore
// configuration by independent 1-attempts rolled back on violation.
func randomFeasibleHardcore(s *Spec, rng *rand.Rand) dist.Config {
	c := make(dist.Config, s.N())
	for v := range c {
		c[v] = 0
	}
	for v := 0; v < s.N(); v++ {
		if rng.Intn(2) == 1 {
			c[v] = 1
			if !s.LocallyFeasibleAt(c, v) {
				c[v] = 0
			}
		}
	}
	return c
}

func TestCompileTableAdoption(t *testing.T) {
	g := graph.Path(3)
	table := []float64{1, 2, 3, 4}
	s, err := NewSpec(g, 2, []Factor{PairTable(0, 1, table, "t")})
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(s)
	if c.factors[0].table == nil {
		t.Fatal("explicit table factor not on table path")
	}
	// Big-endian encoding: (a0, a1) -> a0*2 + a1.
	for a0 := 0; a0 < 2; a0++ {
		for a1 := 0; a1 < 2; a1++ {
			cfg := dist.Config{a0, a1, 0}
			got, ok := c.EvalFull(0, cfg)
			if !ok || got != table[a0*2+a1] {
				t.Fatalf("EvalFull(%d,%d) = %v ok=%v, want %v", a0, a1, got, ok, table[a0*2+a1])
			}
		}
	}
	// The synthesized Eval closure reads the same table.
	if got := s.Factors[0].Eval([]int{1, 0}); got != table[2] {
		t.Fatalf("synthesized Eval = %v, want %v", got, table[2])
	}
}

func TestCompileCapFallback(t *testing.T) {
	g := graph.Cycle(6)
	s := hardcoreSpec(t, g, 2)
	low := CompileCap(s, 1) // q^1 = 2 > 1: everything stays a closure
	full := Compile(s)
	for i := range s.Factors {
		if low.factors[i].table != nil {
			t.Fatalf("factor %d compiled despite cap", i)
		}
		if full.factors[i].table == nil {
			t.Fatalf("factor %d not compiled under default cap", i)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		cfg := randomFeasibleHardcore(s, rng)
		wSpec, err1 := s.Weight(cfg)
		wLow, err2 := low.Weight(cfg)
		wFull, err3 := full.Weight(cfg)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("weight errors: %v %v %v", err1, err2, err3)
		}
		if wSpec != wLow || wSpec != wFull {
			t.Fatalf("weights disagree: spec %v closure-path %v table-path %v", wSpec, wLow, wFull)
		}
	}
}

func TestCompiledPartialKernels(t *testing.T) {
	g := graph.Cycle(6)
	s := hardcoreSpec(t, g, 3)
	c := Compile(s)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		cfg := dist.NewConfig(s.N())
		for v := range cfg {
			if rng.Intn(3) > 0 {
				cfg[v] = rng.Intn(2)
			}
		}
		if got, want := c.PartialWeight(cfg), s.PartialWeight(cfg); got != want {
			t.Fatalf("PartialWeight = %v, want %v (cfg %v)", got, want, cfg)
		}
		for v := 0; v < s.N(); v++ {
			if got, want := c.LocallyFeasibleAt(cfg, v), s.LocallyFeasibleAt(cfg, v); got != want {
				t.Fatalf("LocallyFeasibleAt(%d) = %v, want %v (cfg %v)", v, got, want, cfg)
			}
		}
	}
}

// Incremental identity: the product of partialWeightAt deltas over any
// assignment order times the pinned base equals the total weight.
func TestPartialWeightAtTelescopes(t *testing.T) {
	g := graph.Cycle(5)
	s := hardcoreSpec(t, g, 2)
	c := Compile(s)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		target := randomFeasibleHardcore(s, rng)
		order := rng.Perm(s.N())
		cfg := dist.NewConfig(s.N())
		w := 1.0
		for _, v := range order {
			cfg[v] = target[v]
			w *= c.partialWeightAt(cfg, v)
		}
		want, err := s.Weight(target)
		if err != nil {
			t.Fatal(err)
		}
		if w != want {
			t.Fatalf("telescoped weight %v != Weight %v (order %v, target %v)", w, want, order, target)
		}
	}
}

func TestCondWeights(t *testing.T) {
	g := graph.Cycle(6)
	s := hardcoreSpec(t, g, 2.5)
	c := Compile(s)
	buf := make([]float64, s.Q)
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		cfg := randomFeasibleHardcore(s, rng)
		for v := 0; v < s.N(); v++ {
			w, err := c.CondWeights(cfg, v, buf)
			if err != nil {
				t.Fatal(err)
			}
			// Reference: evaluate the factors at v through the closure path.
			saved := cfg[v]
			for x := 0; x < s.Q; x++ {
				cfg[v] = x
				want := 1.0
				for _, fi := range c.FactorsAt(v) {
					val, ok := s.evalFactor(int(fi), cfg)
					if !ok {
						t.Fatalf("unassigned scope at factor %d", fi)
					}
					want *= val
				}
				if w[x] != want {
					t.Fatalf("CondWeights(%d)[%d] = %v, want %v", v, x, w[x], want)
				}
			}
			cfg[v] = saved
		}
	}
	// Error cases.
	if _, err := c.CondWeights(dist.Config{0, 0, 0, 0, 0, 0}, -1, buf); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if _, err := c.CondWeights(dist.Config{0, 0, 0, 0, 0, 0}, 0, buf[:0]); err == nil {
		t.Error("short buffer accepted")
	}
	partial := dist.NewConfig(6)
	if _, err := c.CondWeights(partial, 0, buf); err == nil {
		t.Error("unassigned neighbour accepted")
	}
}

func TestCompiledWeightRatioOnBall(t *testing.T) {
	g := graph.Cycle(6)
	s := hardcoreSpec(t, g, 2)
	c := Compile(s)
	sc := c.NewScratch()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		a := randomFeasibleHardcore(s, rng)
		b := a.Clone()
		v := rng.Intn(s.N())
		b[v] = 1 - b[v]
		if !s.LocallyFeasible(b) {
			continue
		}
		want, err1 := s.WeightRatioOnBall(b, a, []int{v})
		got, err2 := c.WeightRatioOnBall(b, a, []int{v}, sc)
		gotNil, err3 := c.WeightRatioOnBall(b, a, []int{v}, nil)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("ratio errors: %v %v %v", err1, err2, err3)
		}
		// Both paths visit factors in sorted index order: bit-identical.
		if got != want || gotNil != want {
			t.Fatalf("ratio = %v / %v, want %v", got, gotNil, want)
		}
	}
	// Zero denominator errors on both paths.
	bad := dist.Config{1, 1, 0, 0, 0, 0}
	good := dist.Config{0, 0, 0, 0, 0, 0}
	if _, err := c.WeightRatioOnBall(good, bad, []int{0, 1}, sc); err == nil {
		t.Error("zero denominator accepted")
	}
}

func TestCompiledGreedyCompletion(t *testing.T) {
	g := graph.Cycle(7)
	s := hardcoreSpec(t, g, 1)
	c := Compile(s)
	pin := dist.NewConfig(7)
	pin[0] = 1
	want, err1 := s.GreedyCompletion(pin)
	got, err2 := c.GreedyCompletion(pin)
	if err1 != nil || err2 != nil {
		t.Fatalf("completion errors: %v %v", err1, err2)
	}
	if !got.Equal(want) {
		t.Fatalf("compiled completion %v != spec completion %v", got, want)
	}
}

// A vertex repeated inside one scope: the compiled CSR deduplicates it, the
// table stride accumulation keeps CondWeights correct, and the ratio kernel
// counts the factor once.
func TestCompiledRepeatedScopeVertex(t *testing.T) {
	g := graph.Path(2)
	f := Factor{
		Scope: []int{0, 0},
		Eval: func(a []int) float64 {
			if a[0] == 1 && a[1] == 1 {
				return 3
			}
			return 1
		},
	}
	s, err := NewSpec(g, 2, []Factor{f})
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(s)
	if got := len(c.FactorsAt(0)); got != 1 {
		t.Fatalf("deduped factor count = %d, want 1", got)
	}
	buf := make([]float64, 2)
	w, err := c.CondWeights(dist.Config{0, 0}, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if w[0] != 1 || w[1] != 3 {
		t.Fatalf("CondWeights over repeated scope = %v, want [1 3]", w)
	}
	ratio, err := c.WeightRatioOnBall(dist.Config{1, 0}, dist.Config{0, 0}, []int{0}, nil)
	if err != nil || ratio != 3 {
		t.Fatalf("ratio = %v err %v, want 3", ratio, err)
	}
}

func TestSpecCompiledCachedAndLocalityCached(t *testing.T) {
	g := graph.Cycle(4)
	s := hardcoreSpec(t, g, 1)
	if s.Compiled() != s.Compiled() {
		t.Error("Compiled() not cached")
	}
	ell1, err1 := s.Locality()
	ell2, err2 := s.Locality()
	if err1 != nil || err2 != nil || ell1 != ell2 || ell1 != 1 {
		t.Fatalf("cached locality = %d/%d, errs %v/%v", ell1, ell2, err1, err2)
	}
}

func TestNewSpecTableValidation(t *testing.T) {
	g := graph.Path(2)
	// Wrong table length.
	if _, err := NewSpec(g, 3, []Factor{{Scope: []int{0, 1}, Table: []float64{1, 2}}}); err == nil {
		t.Error("short table accepted")
	}
	// Table with no Eval is legal; Eval synthesized.
	s, err := NewSpec(g, 2, []Factor{{Scope: []int{0}, Table: []float64{1, 5}}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Factors[0].Eval == nil || s.Factors[0].Eval([]int{1}) != 5 {
		t.Error("Eval not synthesized from table")
	}
}
