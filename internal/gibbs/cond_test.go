package gibbs

// cond_test.go pins the conditional-CDF cache to the plan path it
// replaces, mirroring plan_test.go: with identical uniform variates a
// cache-covered engine must write exactly the symbols the plan walk draws
// (slices of the full chain list, irregular subsets, and the one-chain
// list every single-site caller passes, which must also match
// dist.SampleWeights on CondWeights), consume exactly the same number of
// uniforms, keep partial coverage bit-identical, and surface
// byte-for-byte the same bad-row errors — without consuming the erroring
// chain's uniform. The plan side is an engine whose cache was built under
// a zero entry cap (compilePlanOnly).

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/state"
)

// pairSpecQ4 is a purely pairwise q=4 spec (soft proper-coloring-ish
// tables), landing every vertex on the buffered plan walk and the generic
// LUT draw path.
func pairSpecQ4(t *testing.T) *Spec {
	t.Helper()
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		g.MustAddEdge(e[0], e[1])
	}
	pair := make([]float64, 16)
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a == b {
				pair[a*4+b] = 0.2
			} else {
				pair[a*4+b] = 1 + 0.1*float64(a) + 0.03*float64(b)
			}
		}
	}
	factors := []Factor{
		UnaryTable(1, []float64{1, 0.5, 2, 0.25}, "u1"),
		{Scope: []int{0, 1}, Table: pair, Name: "p01"},
		{Scope: []int{1, 2}, Table: pair, Name: "p12"},
		{Scope: []int{2, 3}, Table: pair, Name: "p23"},
		{Scope: []int{3, 0}, Table: pair, Name: "p30"},
	}
	s, err := NewSpec(g, 4, factors)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// condTestSpecs covers every draw path: q=2 and q=3 pair-only, q=3
// buffered (mixed arities + closures), q=4 generic.
func condTestSpecs(t *testing.T) []struct {
	name string
	s    *Spec
} {
	t.Helper()
	return []struct {
		name string
		s    *Spec
	}{
		{"q2", unaryFirstSpec(t)},
		{"q3-pair", pairSpecQ3(t)},
		{"q3-mixed", batchSpec(t)},
		{"q4-pair", pairSpecQ4(t)},
	}
}

// condEngines compiles the spec twice — one engine with the cache off, one
// whose cache is built on first use under the limits then in effect — so
// the two paths can run the same draws side by side.
func condEngines(s *Spec, tableCap int) (off, on *Compiled) {
	return compilePlanOnly(s, tableCap), CompileCap(s, tableCap)
}

// TestCondSamplingMatchesPlanPath is the shadow-RNG equivalence property:
// the cached kernel must write exactly the cells the plan walk writes for
// identical generator states — over slices of the full chain list and
// over irregular subsets — on compact and forced-wide lattices, on the
// tabled and closure-fallback engines.
func TestCondSamplingMatchesPlanPath(t *testing.T) {
	const B = 6
	for _, spec := range condTestSpecs(t) {
		t.Run(spec.name, func(t *testing.T) {
			for _, rep := range []struct {
				name string
				wide bool
			}{{"compact", false}, {"wide", true}} {
				t.Run(rep.name, func(t *testing.T) {
					for _, cap := range []struct {
						name string
						cap  int
					}{{"tabled", DefaultTableCap}, {"closure-fallback", 0}} {
						t.Run(cap.name, func(t *testing.T) {
							if rep.wide {
								defer state.SetCompactLimitForTest(0)()
							}
							engOff, engOn := condEngines(spec.s, cap.cap)
							n, q := engOn.N(), engOn.Q()
							if st := engOn.CondStats(); st.Cached != n {
								t.Fatalf("cache covers %d of %d vertices, want all", st.Cached, n)
							}
							latOff, err := state.Pack(n, q, randomChains(n, q, B, 91))
							if err != nil {
								t.Fatal(err)
							}
							latOn, err := state.Pack(n, q, randomChains(n, q, B, 91))
							if err != nil {
								t.Fatal(err)
							}
							if latOff.Compact() == rep.wide {
								t.Fatalf("lattice Compact() = %v with wide=%v", latOff.Compact(), rep.wide)
							}
							sc := NewBatchScratch(B)
							buf := make([]float64, B*q)
							rngOff := dist.NewXoshiro(13, 4)
							rngOn := rngOff
							same := func(stage string) {
								t.Helper()
								if rngOff != rngOn {
									t.Fatalf("%s: generators diverged (different uniform consumption)", stage)
								}
								for v := 0; v < n; v++ {
									for c := 0; c < B; c++ {
										if a, b := latOff.Get(v, c), latOn.Get(v, c); a != b {
											t.Fatalf("%s: cell (%d,%d) plan=%d cache=%d", stage, v, c, a, b)
										}
									}
								}
							}
							bindOff, err := engOff.BindVertexSubset(latOff)
							if err != nil {
								t.Fatal(err)
							}
							bindOn, err := engOn.BindVertexSubset(latOn)
							if err != nil {
								t.Fatal(err)
							}
							// Sweeps over slices of the full list, including
							// one-chain slices (the scalar fast path).
							all := chainList(B)
							for sweep := 0; sweep < 8; sweep++ {
								for v := 0; v < n; v++ {
									for _, span := range [][2]int{{0, B}, {2, 3}, {B - 1, B}} {
										if err := bindOff(v, all[span[0]:span[1]], buf, sc, &rngOff); err != nil {
											t.Fatal(err)
										}
										if err := bindOn(v, all[span[0]:span[1]], buf, sc, &rngOn); err != nil {
											t.Fatal(err)
										}
									}
								}
							}
							same("list-slices")
							subsets := [][]int32{{0}, {1, 3, 4}, {0, 1, 2, 3, 4, 5}, {5}}
							for sweep := 0; sweep < 8; sweep++ {
								for v := 0; v < n; v++ {
									chains := subsets[(sweep+v)%len(subsets)]
									if err := bindOff(v, chains, buf, sc, &rngOff); err != nil {
										t.Fatal(err)
									}
									if err := bindOn(v, chains, buf, sc, &rngOn); err != nil {
										t.Fatal(err)
									}
								}
							}
							same("bound-subset")
						})
					}
				})
			}
		})
	}
}

// TestCondLookupLatticeMatchesSampleWeights pins the one-chain cache
// lookup — the path of the sequential chain, the LOCAL harnesses and the
// B = 1 engines — to the referee: for the same uniform, the cached draw
// through the kernel bound to the list {0} must return exactly the symbol
// dist.SampleWeights draws from CondWeights, consuming one uniform.
func TestCondLookupLatticeMatchesSampleWeights(t *testing.T) {
	for _, spec := range condTestSpecs(t) {
		t.Run(spec.name, func(t *testing.T) {
			_, eng := condEngines(spec.s, DefaultTableCap)
			n, q := eng.N(), eng.Q()
			if st := eng.CondStats(); st.Cached != n {
				t.Fatalf("cache covers %d of %d vertices, want all", st.Cached, n)
			}
			cfg := randomChains(n, q, 1, 3)[0]
			lat, err := state.Pack(n, q, []dist.Config{cfg})
			if err != nil {
				t.Fatal(err)
			}
			bound, err := eng.BindVertexSubset(lat)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]float64, q)
			ref := make([]float64, q)
			rng := dist.NewXoshiro(99, 0)
			for sweep := 0; sweep < 50; sweep++ {
				for v := 0; v < n; v++ {
					shadow := rng
					w, err := eng.CondWeights(cfg, v, ref)
					if err != nil {
						t.Fatal(err)
					}
					want, err := dist.SampleWeights(w, &shadow)
					if err != nil {
						t.Fatal(err)
					}
					if err := bound(v, []int32{0}, buf, nil, &rng); err != nil {
						t.Fatal(err)
					}
					if got := lat.Get(v, 0); got != want {
						t.Fatalf("sweep %d v=%d: cache drew %d, SampleWeights %d", sweep, v, got, want)
					}
					if rng != shadow {
						t.Fatalf("sweep %d v=%d: uniform consumption diverged", sweep, v)
					}
					cfg[v] = want
				}
			}
		})
	}
}

// uniformCycleQ3 is a q=3 cycle of n vertices with one shared pair table
// and no unary factor, so vertices 1 … n−2 have equal keys and share one
// cond-cache table (vertices 0 and n−1 read their neighbors in another
// order).
func uniformCycleQ3(t *testing.T, n int) *Spec {
	t.Helper()
	g := graph.Cycle(n)
	pair := []float64{1, 0.5, 0.8, 0.5, 1, 0.3, 0.8, 0.3, 1}
	var factors []Factor
	for _, e := range g.Edges() {
		factors = append(factors, PairTable(e.U, e.V, pair, "pair"))
	}
	s, err := NewSpec(g, 3, factors)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCondPartialCoverage shrinks the budgets so only part of the graph is
// cached and checks the mixed cached/uncached sweep stays bit-identical —
// the byte budget must not change semantics, only speed. On a q=3 cycle a
// table takes 3²·3 = 27 row entries and 9 code bytes (225 bytes) and a
// vertex's neighbor list 8 bytes, so 500 bytes admit two tables and four
// more lists. On pairSpecQ3 every vertex builds a table of its own (unary
// priors on 0 and 2; 1 and 3 read their neighbors in opposite orders), so
// two of its four vertices are covered; on a uniform 12-cycle vertices
// 0–5 are covered with two tables between them.
func TestCondPartialCoverage(t *testing.T) {
	restore := SetCondCapForTest(DefaultCondCap, 500)
	defer restore()
	for _, tc := range []struct {
		name           string
		s              *Spec
		cached, tables int
	}{
		{"distinct-tables", pairSpecQ3(t), 2, 2},
		{"shared-tables", uniformCycleQ3(t, 12), 6, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engOff, engOn := condEngines(tc.s, DefaultTableCap)
			n, q := engOn.N(), engOn.Q()
			st := engOn.CondStats()
			if st.Cached != tc.cached || st.Tables != tc.tables {
				t.Fatalf("cache covers %d of %d vertices with %d tables (%d bytes), want %d with %d",
					st.Cached, n, st.Tables, st.Bytes, tc.cached, tc.tables)
			}
			const B = 5
			latOff, err := state.Pack(n, q, randomChains(n, q, B, 7))
			if err != nil {
				t.Fatal(err)
			}
			latOn, err := state.Pack(n, q, randomChains(n, q, B, 7))
			if err != nil {
				t.Fatal(err)
			}
			bindOff, err := engOff.BindVertexSubset(latOff)
			if err != nil {
				t.Fatal(err)
			}
			bindOn, err := engOn.BindVertexSubset(latOn)
			if err != nil {
				t.Fatal(err)
			}
			all := chainList(B)
			sc := NewBatchScratch(B)
			buf := make([]float64, B*q)
			rngOff := dist.NewXoshiro(41, 2)
			rngOn := rngOff
			for sweep := 0; sweep < 10; sweep++ {
				for v := 0; v < n; v++ {
					if err := bindOff(v, all, buf, sc, &rngOff); err != nil {
						t.Fatal(err)
					}
					if err := bindOn(v, all, buf, sc, &rngOn); err != nil {
						t.Fatal(err)
					}
				}
			}
			if rngOff != rngOn {
				t.Fatal("generators diverged under partial coverage")
			}
			for v := 0; v < n; v++ {
				for c := 0; c < B; c++ {
					if a, b := latOff.Get(v, c), latOn.Get(v, c); a != b {
						t.Fatalf("cell (%d,%d): plan=%d mixed=%d", v, c, a, b)
					}
				}
			}
		})
	}
}

// TestCondCapGates checks the eligibility caps: a zero entry cap caches
// nothing (the kernel falls back to the plan walk), and the byte budget
// holds under any entry cap.
func TestCondCapGates(t *testing.T) {
	t.Run("zero-entry-cap", func(t *testing.T) {
		defer SetCondCapForTest(0, int64(DefaultCondBytes))()
		_, eng := condEngines(pairSpecQ3(t), DefaultTableCap)
		if st := eng.CondStats(); st.Cached != 0 || st.Bytes != 0 {
			t.Fatalf("zero cap cached %+v", st)
		}
		// Kernels still work through the plan walk.
		n, q := eng.N(), eng.Q()
		lat, err := state.Pack(n, q, randomChains(n, q, 3, 5))
		if err != nil {
			t.Fatal(err)
		}
		kernel, err := eng.BindVertexSubset(lat)
		if err != nil {
			t.Fatal(err)
		}
		rng := dist.NewXoshiro(1, 0)
		if err := kernel(0, chainList(3), make([]float64, 3*q), NewBatchScratch(3), &rng); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("auto-respects-byte-budget", func(t *testing.T) {
		defer SetCondCapForTest(DefaultCondCap, 1)()
		_, eng := condEngines(pairSpecQ3(t), DefaultTableCap)
		if st := eng.CondStats(); st.Cached != 0 {
			t.Fatalf("1-byte budget cached %d vertices", st.Cached)
		}
	})
}

// TestCondBadRowMatchesPlanError forces a reachable zero-mass conditional
// (a two-coloring path pinned to opposite colors around the middle vertex)
// and checks the cached path reproduces the plan path's error byte for
// byte without consuming the erroring chain's uniform.
func TestCondBadRowMatchesPlanError(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	diff := []float64{0, 1, 1, 0}
	s, err := NewSpec(g, 2, []Factor{
		{Scope: []int{0, 1}, Table: diff, Name: "p01"},
		{Scope: []int{1, 2}, Table: diff, Name: "p12"},
	})
	if err != nil {
		t.Fatal(err)
	}
	engOff, engOn := condEngines(s, DefaultTableCap)
	mk := func() *state.Lattice {
		cfg := dist.NewConfig(3)
		cfg[0], cfg[1], cfg[2] = 0, 0, 1 // v1's conditional: both colors blocked
		lat, err := state.Pack(3, 2, []dist.Config{cfg})
		if err != nil {
			t.Fatal(err)
		}
		return lat
	}
	buf := make([]float64, 2)
	sc := NewBatchScratch(1)
	rngOff := dist.NewXoshiro(3, 0)
	rngOn := rngOff
	bindOff, err := engOff.BindVertexSubset(mk())
	if err != nil {
		t.Fatal(err)
	}
	bindOn, err := engOn.BindVertexSubset(mk())
	if err != nil {
		t.Fatal(err)
	}
	errOff := bindOff(1, []int32{0}, buf, sc, &rngOff)
	errOn := bindOn(1, []int32{0}, buf, sc, &rngOn)
	if errOff == nil || errOn == nil {
		t.Fatalf("zero-mass row not diagnosed: off=%v on=%v", errOff, errOn)
	}
	if errOff.Error() != errOn.Error() {
		t.Fatalf("errors differ:\noff: %v\non:  %v", errOff, errOn)
	}
	if rngOff != rngOn {
		t.Fatal("generators diverged on the error path")
	}
}
