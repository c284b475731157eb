// Ablation benchmarks for the design choices of the reproduction (README.md
// maps the packages): bridge-completion strategy and ratio restriction
// inside the JVV sampler, network-decomposition parameter tradeoffs, SAW
// truncation depth, and the exact JVV sampler against the classical
// Glauber-dynamics baseline.
package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/decay"
	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/glauber"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/netdecomp"
)

func benchHardcoreSetup(b *testing.B, n int, lambda float64) (*gibbs.Instance, *core.DecayOracle) {
	b.Helper()
	g := graph.Cycle(n)
	spec, err := model.Hardcore(g, lambda)
	if err != nil {
		b.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	est, err := decay.NewHardcoreSAW(g, lambda)
	if err != nil {
		b.Fatal(err)
	}
	return in, &core.DecayOracle{Est: est, Rate: model.HardcoreDecayRate(lambda, 2), N: n}
}

// BenchmarkAblationJVVCompletion compares the two pass-3 bridge
// constructions: greedy completion (needs local admissibility, linear) vs
// exhaustive ball enumeration (fully general, exponential in the ball).
func BenchmarkAblationJVVCompletion(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    core.CompletionMode
	}{
		{"greedy", core.CompleteGreedy},
		{"enumerate", core.CompleteEnumerate},
	} {
		b.Run(mode.name, func(b *testing.B) {
			in, o := benchHardcoreSetup(b, 16, 1.0)
			rng := rand.New(rand.NewSource(1))
			cfg := core.JVVConfig{BallCompletion: mode.m}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.LocalJVV(in, o, cfg, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationJVVRatio compares the B_{2t}-restricted acceptance
// ratio of equation (11) against the full-product variant: the restriction
// is what makes pass 3 local, and the bench quantifies the cost it saves.
func BenchmarkAblationJVVRatio(b *testing.B) {
	for _, full := range []bool{false, true} {
		name := "restricted"
		if full {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			in, o := benchHardcoreSetup(b, 32, 1.0)
			rng := rand.New(rand.NewSource(2))
			cfg := core.JVVConfig{FullRatio: full}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.LocalJVV(in, o, cfg, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSamplerVsGlauber compares one exact JVV sample against
// Glauber dynamics run for enough sweeps to be comparably accurate on this
// instance — the classical-baseline comparison.
func BenchmarkAblationSamplerVsGlauber(b *testing.B) {
	b.Run("jvv-exact", func(b *testing.B) {
		in, o := benchHardcoreSetup(b, 24, 1.0)
		rng := rand.New(rand.NewSource(3))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.LocalJVV(in, o, core.JVVConfig{}, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("glauber-30sweeps", func(b *testing.B) {
		in, _ := benchHardcoreSetup(b, 24, 1.0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := glauber.Sample(in, 30, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationNetdecompRadius sweeps the ball-carving radius budget:
// larger radii produce fewer colors (fewer scheduling phases) but larger
// cluster diameters (longer phases) — the C·D tradeoff behind Lemma 3.1.
func BenchmarkAblationNetdecompRadius(b *testing.B) {
	g := graph.Torus(12, 12)
	for _, radius := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("radius=%d", radius), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			var colors, diam int
			for i := 0; i < b.N; i++ {
				d, err := netdecomp.BallCarving(g, netdecomp.Params{RadiusBudget: radius}, rng)
				if err != nil {
					b.Fatal(err)
				}
				colors, diam = d.Colors, d.Diameter
			}
			b.ReportMetric(float64(colors), "colors")
			b.ReportMetric(float64(diam), "diameter")
			b.ReportMetric(float64(colors*(diam+1)), "schedule-cost")
		})
	}
}

// BenchmarkAblationSAWDepth sweeps the SAW truncation depth on a 3-regular
// graph, reporting the accuracy bought per unit of exponential cost.
func BenchmarkAblationSAWDepth(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	g, err := graph.RandomRegular(64, 3, rng)
	if err != nil {
		b.Fatal(err)
	}
	lambda := 1.0 // < λc(3) = 4
	est, err := decay.NewHardcoreSAW(g, lambda)
	if err != nil {
		b.Fatal(err)
	}
	pin := dist.NewConfig(g.N())
	ref, err := est.Marginal(pin, 0, 24)
	if err != nil {
		b.Fatal(err)
	}
	for _, depth := range []int{4, 8, 12, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var got dist.Dist
			for i := 0; i < b.N; i++ {
				var err error
				got, err = est.Marginal(pin, 0, depth)
				if err != nil {
					b.Fatal(err)
				}
			}
			tv, err := dist.TV(got, ref)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(tv, "TVerr")
		})
	}
}

// BenchmarkAblationBoostVsDirect compares the boosting route to
// multiplicative error (shell pinning + ball enumeration) against the
// direct multiplicative guarantee of the SAW oracle — the choice Theorem
// 4.2 leaves open when the model's SSM is already known in multiplicative
// form (Corollary 5.2).
func BenchmarkAblationBoostVsDirect(b *testing.B) {
	in, o := benchHardcoreSetup(b, 12, 1.0)
	b.Run("boost", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Boost(in, o, 0, 0.1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("direct-saw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := o.MarginalMult(in, 0, 0.1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
