package repro_test

// plan_prop_test.go: the sweep-plan equivalence property. The fused
// kernels run a compiled per-vertex instruction stream (gibbs.SweepPlan)
// instead of interpreting the factor graph; nothing downstream may be able
// to tell. The test pins that exactly: for every model builder of
// internal/model, the planned weights (CondWeightsBatchPlan) must be
// BIT-IDENTICAL to the referee (CondWeights on each chain's configuration)
// at every vertex and chain span — on the dense-table and the
// closure-fallback engine, on compact and forced-wide lattices — with the
// chain states drawn from real batched sweeps.

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/psample"
	"repro/internal/state"
)

// closureEngine recompiles the spec with every factor stripped to its Eval
// closure and the table cap at zero, so all factors take the closure path
// (explicit tables are adopted verbatim regardless of cap, so stripping is
// the only way to force the fallback).
func closureEngine(t *testing.T, s *gibbs.Spec) *gibbs.Compiled {
	t.Helper()
	fs := make([]gibbs.Factor, len(s.Factors))
	for i, f := range s.Factors {
		fs[i] = gibbs.Factor{Scope: f.Scope, Eval: f.Eval, Name: f.Name}
	}
	s2, err := gibbs.NewSpec(s.G, s.Q, fs)
	if err != nil {
		t.Fatal(err)
	}
	return gibbs.CompileCap(s2, 0)
}

func TestSweepPlanBitIdenticalToBatchKernel(t *testing.T) {
	const (
		seed = 20260807
		B    = 6
	)
	for name, in := range propInstances(t) {
		t.Run(name, func(t *testing.T) {
			for _, rep := range []struct {
				name string
				wide bool
			}{{"compact", false}, {"wide", true}} {
				t.Run(rep.name, func(t *testing.T) {
					restore := func() {}
					if rep.wide {
						restore = state.SetCompactLimitForTest(0)
					}
					defer restore()
					r, err := psample.RulesOf(in)
					if err != nil {
						t.Fatal(err)
					}
					// Real sweep states, not synthetic ones: run a few
					// batched sweeps so the compared conditionals sit on
					// configurations the engine actually visits.
					b, err := psample.NewBatchChromaticGlauber(r, B, seed)
					if err != nil {
						t.Fatal(err)
					}
					if err := b.Run(3); err != nil {
						t.Fatal(err)
					}
					lat := b.Lattice()
					if lat.Compact() == rep.wide {
						t.Fatalf("lattice Compact() = %v with wide=%v", lat.Compact(), rep.wide)
					}
					chains := make([]dist.Config, B)
					for c := range chains {
						chains[c] = lat.Chain(c)
					}
					engines := []struct {
						name string
						eng  *gibbs.Compiled
					}{
						{"table", in.Spec.Compiled()},
						{"closure", closureEngine(t, in.Spec)},
					}
					for _, e := range engines {
						eng := e.eng
						q := eng.Q()
						sc := gibbs.NewBatchScratch(B)
						ref := make([]float64, q)
						got := make([]float64, B*q)
						for v := 0; v < eng.N(); v++ {
							for _, span := range [][2]int{{0, B}, {1, 4}, {B - 1, B}} {
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
									for x := range want {
										if w[(c-c0)*q+x] != want[x] {
											t.Fatalf("%s engine v=%d span=[%d,%d) chain %d x=%d: plan %v != CondWeights %v",
												e.name, v, c0, c1, c, x, w[(c-c0)*q+x], want[x])
										}
									}
								}
							}
						}
					}
				})
			}
		})
	}
}
