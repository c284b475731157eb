// Benchmarks regenerating every experiment table of the reproduction (one
// per claim of Feng & Yin, PODC 2018; see README.md for the experiment
// index and how to reproduce the tables), plus microbenchmarks of the
// underlying substrates. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/decay"
	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/experiment"
	"repro/internal/gibbs"
	"repro/internal/glauber"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/model"
	"repro/internal/netdecomp"
	"repro/internal/psample"
	"repro/internal/run"
	"repro/internal/sampler"
	"repro/internal/spec"
	"repro/internal/state"
)

// reportTable runs an experiment builder once per iteration and surfaces a
// single headline metric.
func reportTable(b *testing.B, build func() (*experiment.Table, error), metric string, pick func(*experiment.Table) float64) {
	b.Helper()
	var last *experiment.Table
	for i := 0; i < b.N; i++ {
		t, err := build()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if last != nil && pick != nil {
		b.ReportMetric(pick(last), metric)
	}
}

func parseCell(b *testing.B, t *experiment.Table, row, col int) float64 {
	b.Helper()
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		b.Fatalf("cell (%d,%d) out of range", row, col)
	}
	x, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell %q: %v", t.Rows[row][col], err)
	}
	return x
}

// BenchmarkE1InferenceToSampling regenerates E1 (Theorem 3.2): LOCAL rounds
// of the inference-to-sampling reduction across sizes; the reported metric
// is rounds/log³n at the largest size (bounded ⇔ polylog claim).
func BenchmarkE1InferenceToSampling(b *testing.B) {
	reportTable(b, func() (*experiment.Table, error) {
		return experiment.E1InferenceToSampling([]int{16, 32, 64}, 1.0, 0.1, 1)
	}, "rounds/log3n", func(t *experiment.Table) float64 {
		return parseCell(b, t, len(t.Rows)-1, 4)
	})
}

// BenchmarkE2SamplingToInference regenerates E2 (Theorem 3.4): inference
// reconstructed from sampling; metric is the worst marginal TV error.
func BenchmarkE2SamplingToInference(b *testing.B) {
	reportTable(b, func() (*experiment.Table, error) {
		return experiment.E2SamplingToInference(10, 1.0, 0.02, 2000, 2)
	}, "worstTV", func(t *experiment.Table) float64 {
		worst := 0.0
		for i := range t.Rows {
			if v := parseCell(b, t, i, 3); v > worst {
				worst = v
			}
		}
		return worst
	})
}

// BenchmarkE3Boosting regenerates E3 (Lemma 4.1); metric is the measured
// multiplicative error at the tightest ε.
func BenchmarkE3Boosting(b *testing.B) {
	reportTable(b, func() (*experiment.Table, error) {
		return experiment.E3Boosting(10, 1.0, []float64{0.5, 0.2, 0.1}, 3)
	}, "multErr", func(t *experiment.Table) float64 {
		return parseCell(b, t, len(t.Rows)-1, 2)
	})
}

// BenchmarkE4LocalJVV regenerates E4 (Theorem 4.2); metric is the TV
// distance between the JVV output distribution and brute-force truth.
func BenchmarkE4LocalJVV(b *testing.B) {
	reportTable(b, func() (*experiment.Table, error) {
		return experiment.E4LocalJVV([]int{6, 8}, 1.0, 1500, 4)
	}, "TVvsExact", func(t *experiment.Table) float64 {
		return parseCell(b, t, 0, 1)
	})
}

// BenchmarkE5SSMInference regenerates E5 (Theorem 5.1 converse); metric is
// the inference error at the largest radius.
func BenchmarkE5SSMInference(b *testing.B) {
	reportTable(b, func() (*experiment.Table, error) {
		return experiment.E5SSMInference(14, 1.0, []int{1, 2, 3, 4, 5})
	}, "TVatR5", func(t *experiment.Table) float64 {
		return parseCell(b, t, len(t.Rows)-1, 1)
	})
}

// BenchmarkE6InferenceImpliesSSM regenerates E6 (Theorem 5.1 forward);
// metric is the measured SSM at the largest distance.
func BenchmarkE6InferenceImpliesSSM(b *testing.B) {
	reportTable(b, func() (*experiment.Table, error) {
		return experiment.E6InferenceImpliesSSM(13, 1.0, 6)
	}, "worstTV", func(t *experiment.Table) float64 {
		return parseCell(b, t, len(t.Rows)-1, 1)
	})
}

// BenchmarkE7TVvsMultiplicativeDecay regenerates E7 (Corollary 5.2); metric
// is the multiplicative error at the largest distance.
func BenchmarkE7TVvsMultiplicativeDecay(b *testing.B) {
	reportTable(b, func() (*experiment.Table, error) {
		return experiment.E7TVvsMult(13, 1.0, 6)
	}, "multAtMax", func(t *experiment.Table) float64 {
		return parseCell(b, t, len(t.Rows)-1, 2)
	})
}

// BenchmarkE8HardcorePhaseTransition regenerates E8 (the headline phase
// transition); metric is the supercritical/subcritical correlation ratio at
// the deepest tree — large ⇔ dichotomy.
func BenchmarkE8HardcorePhaseTransition(b *testing.B) {
	reportTable(b, func() (*experiment.Table, error) {
		return experiment.E8PhaseTransition(3, []float64{0.25, 4.0}, []int{4, 8, 12, 16})
	}, "corrRatio", func(t *experiment.Table) float64 {
		col := len(t.Columns) - 2
		sub := parseCell(b, t, 0, col)
		sup := parseCell(b, t, 1, col)
		if sub == 0 {
			return 1e9
		}
		return sup / sub
	})
}

// BenchmarkE9Matchings regenerates E9 (the √Δ matching scaling); metric is
// depth/√Δ at the largest Δ.
func BenchmarkE9Matchings(b *testing.B) {
	reportTable(b, func() (*experiment.Table, error) {
		return experiment.E9Matchings([]int{3, 5, 9, 17, 33}, 1.0, 1e-4, 0)
	}, "depthPerSqrtΔ", func(t *experiment.Table) float64 {
		return parseCell(b, t, len(t.Rows)-1, 4)
	})
}

// BenchmarkE10ColoringsAndTwoSpin regenerates E10 (colorings + Ising +
// hypergraph matchings); metric is the coloring depth at the largest q.
func BenchmarkE10ColoringsAndTwoSpin(b *testing.B) {
	reportTable(b, func() (*experiment.Table, error) {
		if _, err := experiment.E10Ising(4, []float64{0.3, 1.0, 3.0}, []int{4, 6}); err != nil {
			return nil, err
		}
		if _, err := experiment.E10Hypergraph(3, 4, []float64{0.5, 1.5}, []int{2, 3}); err != nil {
			return nil, err
		}
		return experiment.E10Colorings(4, []int{5, 8, 10}, 1e-3, 0)
	}, "depthAtQmax", func(t *experiment.Table) float64 {
		return parseCell(b, t, len(t.Rows)-1, 2)
	})
}

// BenchmarkE11Counting regenerates E11 (chain-rule counting); metric is the
// lnZ error at the largest size.
func BenchmarkE11Counting(b *testing.B) {
	reportTable(b, func() (*experiment.Table, error) {
		return experiment.E11Counting([]int{8, 12, 16}, 1.0, 1e-6)
	}, "lnZerr", func(t *experiment.Table) float64 {
		return parseCell(b, t, len(t.Rows)-1, 3)
	})
}

// --- Substrate microbenchmarks ---

// BenchmarkSAWMarginal measures one Weitz SAW-tree marginal on a cycle at
// logarithmic depth.
func BenchmarkSAWMarginal(b *testing.B) {
	g := graph.Cycle(256)
	est, err := decay.NewHardcoreSAW(g, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	pin := dist.NewConfig(g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Marginal(pin, i%g.N(), 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSAWMarginalDegree4 measures the SAW recursion where branching
// matters (4-regular torus, depth 8).
func BenchmarkSAWMarginalDegree4(b *testing.B) {
	g := graph.Torus(16, 16)
	est, err := decay.NewHardcoreSAW(g, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	pin := dist.NewConfig(g.N())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Marginal(pin, i%g.N(), 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalJVVSample measures one full three-pass JVV run on a cycle
// with the SAW oracle.
func BenchmarkLocalJVVSample(b *testing.B) {
	g := graph.Cycle(24)
	spec, err := model.Hardcore(g, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	est, err := decay.NewHardcoreSAW(g, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	o := &core.DecayOracle{Est: est, Rate: 0.5, N: g.N()}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LocalJVV(in, o, core.JVVConfig{}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBallCarving measures one network decomposition of a 4-regular
// torus.
func BenchmarkBallCarving(b *testing.B) {
	g := graph.Torus(16, 16)
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netdecomp.BallCarving(g, netdecomp.Params{}, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGather measures the goroutine-per-node flooding of radius-4
// ball views on a torus.
func BenchmarkGather(b *testing.B) {
	net := local.NewNetwork(graph.Torus(12, 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := net.Gather(4, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactPartition measures the brute-force referee (hardcore on a
// 4x4 grid) — the incremental compiled-table enumeration path.
func BenchmarkExactPartition(b *testing.B) {
	g := graph.Grid(4, 4)
	spec, err := model.Hardcore(g, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	in.Spec.Compiled() // compile outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.Partition(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlauberStep measures one steady-state heat-bath update on a
// 4-regular torus through the compiled conditional kernel. The acceptance
// bar for the compiled engine is 0 allocs/op here.
func BenchmarkGlauberStep(b *testing.B) {
	g := graph.Torus(16, 16)
	spec, err := model.Hardcore(g, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	chain, err := glauber.New(in, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := chain.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCondWeights isolates the conditional-weights kernel: the
// compiled dense-table path against the equivalent closure-dispatch loop it
// replaced.
func BenchmarkCondWeights(b *testing.B) {
	g := graph.Torus(16, 16)
	spec, err := model.Hardcore(g, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	eng := spec.Compiled()
	cfg, err := eng.GreedyCompletion(dist.NewConfig(g.N()))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("compiled", func(b *testing.B) {
		buf := make([]float64, spec.Q)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := eng.CondWeights(cfg, i%g.N(), buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("closure", func(b *testing.B) {
		buf := make([]float64, spec.Q)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			v := i % g.N()
			saved := cfg[v]
			for x := 0; x < spec.Q; x++ {
				cfg[v] = x
				wx := 1.0
				for _, fi := range spec.FactorsAt(v) {
					f := spec.Factors[fi]
					assign := make([]int, len(f.Scope))
					for j, u := range f.Scope {
						assign[j] = cfg[u]
					}
					wx *= f.Eval(assign)
				}
				buf[x] = wx
			}
			cfg[v] = saved
		}
	})
}

// BenchmarkCondLookup isolates the single-chain heat-bath update the
// sequential chain runs — the kernel bound to a one-chain lattice, called
// with the list {0} on the vertices in order — with the conditional-CDF
// cache lookup (lut) against the sweep-plan walk it replaces (plan). The
// two engines differ only in the cache: plan's was built under a zero
// entry cap.
func BenchmarkCondLookup(b *testing.B) {
	g := graph.Torus(16, 16)
	compile := func(b *testing.B) *gibbs.Compiled {
		spec, err := model.Hardcore(g, 1.0)
		if err != nil {
			b.Fatal(err)
		}
		return spec.Compiled()
	}
	eng := compile(b)
	cfg, err := eng.GreedyCompletion(dist.NewConfig(g.N()))
	if err != nil {
		b.Fatal(err)
	}
	step := func(b *testing.B, eng *gibbs.Compiled) {
		lat, err := state.Pack(g.N(), eng.Q(), []dist.Config{cfg})
		if err != nil {
			b.Fatal(err)
		}
		kernel, err := eng.BindVertexSubset(lat)
		if err != nil {
			b.Fatal(err)
		}
		chain0 := []int32{0}
		buf := make([]float64, eng.Q())
		sc := gibbs.NewBatchScratch(1)
		rng := dist.NewXoshiro(7, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := kernel(i%g.N(), chain0, buf, sc, &rng); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("lut", func(b *testing.B) { step(b, eng) })
	b.Run("plan", func(b *testing.B) {
		restore := gibbs.SetCondCapForTest(0, 0)
		planEng := compile(b)
		planEng.Cond()
		restore()
		step(b, planEng)
	})
}

// BenchmarkE12RoundsToMix regenerates E12 (LubyGlauber / LocalMetropolis
// vs sequential Glauber); metric is the LocalMetropolis TV at the largest
// sweep-equivalent budget.
func BenchmarkE12RoundsToMix(b *testing.B) {
	reportTable(b, func() (*experiment.Table, error) {
		return experiment.E12RoundsToMix(6, 1.0, []int{1, 4, 8}, 1200, 5)
	}, "metroTVatMax", func(t *experiment.Table) float64 {
		return parseCell(b, t, len(t.Rows)-1, 5)
	})
}

// --- Distributed sampler benchmarks (internal/psample) ---

// benchSamplerSetup builds the throughput workload: hardcore on a 4-regular
// torus with n = 576 ≥ 512 vertices.
func benchSamplerSetup(b *testing.B) (*gibbs.Instance, *psample.Rules) {
	b.Helper()
	g := graph.Torus(24, 24)
	spec, err := model.Hardcore(g, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	rules, err := psample.RulesOf(in)
	if err != nil {
		b.Fatal(err)
	}
	return in, rules
}

// BenchmarkSamplerSweep compares one sweep-equivalent of every registered
// dynamic on the same instance, selected through the internal/sampler
// registry: n sequential heat-bath updates for glauber, Δ+1 LubyGlauber
// phases (a vertex wins a phase with probability ≥ 1/(Δ+1), so Δ+1 rounds
// perform ≈ n updates), one LocalMetropolis round (every vertex proposes),
// and one χ-stage ChromaticGlauber sweep. The three batched engines run
// one chain (Chains 0) on the default worker pool — on a multi-core
// machine they spread the sweep across CPUs while the sequential baseline
// cannot.
func BenchmarkSamplerSweep(b *testing.B) {
	in, _ := benchSamplerSetup(b)
	for _, name := range sampler.Names() {
		b.Run(name, func(b *testing.B) {
			s, err := sampler.Create(name, in, sampler.Options{Seed: 11})
			if err != nil {
				b.Fatal(err)
			}
			sweep, err := sampler.SweepRounds(name, in)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Run(sweep); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if u, ok := s.(interface{ Updates() int64 }); ok && s.Rounds() > 0 {
				b.ReportMetric(float64(u.Updates())/float64(s.Rounds()), "updates/round")
			}
			if a, ok := s.(interface{ Accepts() int64 }); ok && s.Rounds() > 0 {
				b.ReportMetric(float64(a.Accepts())/float64(s.Rounds()), "accepts/round")
			}
		})
	}
}

// BenchmarkBatchSweep measures the batched multi-chain engine on the same
// 576-vertex torus: one full chromatic sweep of B independent chains per
// iteration. The headline metric is ns/chain-sweep — the amortized cost of
// sweeping one chain — which must drop as B grows: the per-vertex factor
// walk, mixed-radix index computation, and table cache misses are shared
// across the B chains of a vertex block.
func BenchmarkBatchSweep(b *testing.B) {
	_, rules := benchSamplerSetup(b)
	runSweep := func(b *testing.B, rules *psample.Rules, B int) {
		bt, err := psample.NewBatchChromaticGlauber(rules, B, 11)
		if err != nil {
			b.Fatal(err)
		}
		// Warm up once so the lazily built sweep plan, the conditional-CDF
		// cache, the worker pool, and the lattice preflight land outside the
		// timed region — on a 1x CI run the first subtest would otherwise
		// absorb the whole plan compilation.
		if err := bt.Run(1); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := bt.Run(1); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*B), "ns/chain-sweep")
	}
	for _, B := range []int{1, 8, 32, 128, 512} {
		b.Run(fmt.Sprintf("B=%d", B), func(b *testing.B) { runSweep(b, rules, B) })
	}
	// The cond=off / cond=on pair isolates the conditional-CDF cache at the
	// headline width: off runs an engine whose cache was built under a zero
	// entry cap, so every draw walks the sweep plan; on uses the cache and
	// reports its footprint as cond-bytes (per-chain samples are
	// bit-identical either way).
	b.Run("cond=off/B=32", func(b *testing.B) {
		restore := gibbs.SetCondCapForTest(0, 0)
		_, planRules := benchSamplerSetup(b)
		planRules.Engine().Cond()
		restore()
		runSweep(b, planRules, 32)
	})
	b.Run("cond=on/B=32", func(b *testing.B) {
		runSweep(b, rules, 32)
		st := rules.Engine().CondStats()
		b.ReportMetric(float64(st.Bytes), "cond-bytes")
	})
}

// batchRound times one round per iteration of a batched engine and
// reports ns/chain-round — the amortized cost of advancing one
// chain by one round, the number the batched engines exist to shrink.
func batchRound(b *testing.B, s interface{ Run(int) error }, chains int) {
	b.Helper()
	// Warm up once so lazily built sweep plans, worker pools, and the
	// lattice preflight land outside the timed region.
	if err := s.Run(1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Run(1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chains), "ns/chain-round")
}

// BenchmarkBatchLubySweep measures the LubyGlauber engine on the
// 576-vertex torus: one round (one Luby phase across all B chains) per
// iteration. B = 1 is the single-chain sampler, whose rows take the
// one-chain paths. ns/chain-round must drop as B grows — the per-vertex
// plan walk, neighbor scan, and factor-table traffic of the heat-bath
// kernel are shared across the winning chains of a vertex.
func BenchmarkBatchLubySweep(b *testing.B) {
	_, rules := benchSamplerSetup(b)
	for _, B := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("B=%d", B), func(b *testing.B) {
			s, err := psample.NewBatchLubyGlauber(rules, B, 11)
			if err != nil {
				b.Fatal(err)
			}
			batchRound(b, s, B)
		})
	}
}

// BenchmarkBatchMetropolisSweep measures the LocalMetropolis engine on
// the same instance: one round (every free vertex proposes in every
// chain) per iteration; B = 1 is the single-chain sampler. The batched
// filter amortizes each acceptance factor's mixed-radix bases and table
// rows across a whole chain block, and proposals/adoptions run over
// contiguous chain-major rows.
func BenchmarkBatchMetropolisSweep(b *testing.B) {
	_, rules := benchSamplerSetup(b)
	for _, B := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("B=%d", B), func(b *testing.B) {
			s, err := psample.NewBatchLocalMetropolis(rules, B, 11)
			if err != nil {
				b.Fatal(err)
			}
			batchRound(b, s, B)
		})
	}
}

// BenchmarkColoringSweep measures the heat-bath kernel at q > 2 on the
// proper 10-colourings of a 48×48 torus, where the cond cache covers no
// vertex (q^(deg+1) = 10⁵ entries) and every draw is the zero-one mask
// draw: one sweep-equivalent of B = 16 chains per iteration — Δ+1 = 5
// LubyGlauber rounds, or one ChromaticGlauber sweep — reported as
// ns/chain-sweep. The luby and chromatic cases run on one worker, inline;
// luby/workers=2 runs the same rounds on a two-worker pool, which crosses
// the RunRounds barrier twice per round, polling at -cpu 2 and above on a
// machine with two CPUs or more and parking at -cpu 1.
func BenchmarkColoringSweep(b *testing.B) {
	spec, err := model.Coloring(graph.Torus(48, 48), 10)
	if err != nil {
		b.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	const B = 16
	for _, tc := range []struct {
		name, dynamic string
		workers       int
	}{
		{"luby", "luby", 1},
		{"chromatic", "chromatic", 1},
		{"luby/workers=2", "luby", 2},
	} {
		b.Run(tc.name, func(b *testing.B) {
			s, err := sampler.Create(tc.dynamic, in, sampler.Options{Chains: B, Seed: 11})
			if err != nil {
				b.Fatal(err)
			}
			s.(interface{ SetWorkers(int) }).SetWorkers(tc.workers)
			sweep, err := sampler.SweepRounds(tc.dynamic, in)
			if err != nil {
				b.Fatal(err)
			}
			// Warm up once so the plan, the cache and the lattice
			// preflight land outside the timed region.
			if err := s.Run(sweep); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.Run(sweep); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*B), "ns/chain-sweep")
		})
	}
}

// BenchmarkPlan measures compiling the sweep plan, Compiled.Plan, once per
// iteration on a fresh Compiled built with the timer stopped: the proper
// 10-colourings of the 48×48 torus, where every op is a pair gather and
// every plan is zero-one, and the 64×64 antiferromagnetic Ising torus,
// where each vertex's unary factor folds into its prior. allocs/op counts
// what the plan build allocates.
func BenchmarkPlan(b *testing.B) {
	cases := []struct {
		name  string
		build func() (*gibbs.Spec, error)
	}{
		{"coloring-torus48-q10", func() (*gibbs.Spec, error) { return model.Coloring(graph.Torus(48, 48), 10) }},
		{"ising-torus64", func() (*gibbs.Spec, error) { return model.Ising(graph.Torus(64, 64), 0.8, 1) }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			sp, err := tc.build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := gibbs.Compile(sp)
				b.StartTimer()
				c.Plan()
			}
		})
	}
}

// BenchmarkCondBuild times the conditional-CDF cache build of the 64² Ising
// torus: each iteration compiles a fresh engine and builds its sweep plan
// untimed, then times Cond(). It reports the cache's bytes and its
// distinct tables.
func BenchmarkCondBuild(b *testing.B) {
	sp, err := model.Ising(graph.Torus(64, 64), 0.8, 1)
	if err != nil {
		b.Fatal(err)
	}
	var c *gibbs.Compiled
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c = gibbs.Compile(sp)
		c.Plan()
		b.StartTimer()
		c.Cond()
	}
	b.StopTimer()
	st := c.CondStats()
	b.ReportMetric(float64(st.Bytes), "cond-bytes")
	b.ReportMetric(float64(st.Tables), "tables")
}

// BenchmarkLubyGlauberLOCAL measures the message-passing harness (4 rounds
// of LubyGlauber on a 12×12 torus through the LOCAL simulator) — the
// simulator overhead the in-process engine removes.
func BenchmarkLubyGlauberLOCAL(b *testing.B) {
	g := graph.Torus(12, 12)
	spec, err := model.Hardcore(g, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	rules, err := psample.RulesOf(in)
	if err != nil {
		b.Fatal(err)
	}
	net := local.NewNetwork(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := psample.LubyGlauberLOCAL(net, rules, 4, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDriverConverge measures the adaptive run controller end to end:
// one full drive-to-convergence per iteration on a 36-vertex torus Ising
// instance inside the uniqueness regime (Δ = 4 interval is (1/2, 2)),
// chromatic dynamics, stopping at worst-vertex R̂ < 1.05. The benchmark
// fails if any run exhausts the budget instead of converging, so it doubles
// as a CI check that the stop rule actually fires; sweeps-to-converge is
// the decision-quality metric next to the wall-clock one.
func BenchmarkDriverConverge(b *testing.B) {
	g := graph.Torus(6, 6)
	spec, err := model.Ising(g, 0.8, 1)
	if err != nil {
		b.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	p := run.Policy{
		Chains:     8,
		MaxSweeps:  4096,
		CheckEvery: 4,
		Rhat:       1.05,
	}
	b.ReportAllocs()
	b.ResetTimer()
	sweeps := 0
	for i := 0; i < b.N; i++ {
		rep, _, err := run.One(in, "chromatic", 11, p)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Converged {
			b.Fatalf("driver did not converge: stop=%s after %d sweeps", rep.Reason, rep.Sweeps)
		}
		sweeps = rep.Sweeps
	}
	b.StopTimer()
	b.ReportMetric(float64(sweeps), "sweeps-to-converge")
}

// BenchmarkDriveCorpus measures one run.Drive per iteration under the
// corpus-escalate policy of perfbench (LocalMetropolis capped at 128
// sweeps with a 0.1 rate floor, then chromatic; 16 chains, worst-vertex
// R̂ ≤ 1.05, one engine worker) on hardcore-tree15-above, whose
// metropolis stage runs to its cap and escalates. With one engine worker,
// GOMAXPROCS 2 leaves a core to the drive's backlog of split-R̂/ESS passes
// and GOMAXPROCS 1 runs every pass inline, so -cpu 1,2 times both paths.
// The instance is built once; the drive, engine construction included, is
// timed. The seed is fixed, so every iteration runs the same drive.
func BenchmarkDriveCorpus(b *testing.B) {
	data, err := os.ReadFile(filepath.Join("testdata", "corpus", "hardcore-tree15-above.json"))
	if err != nil {
		b.Fatal(err)
	}
	f, err := spec.Parse(data)
	if err != nil {
		b.Fatal(err)
	}
	built, err := f.Build()
	if err != nil {
		b.Fatal(err)
	}
	p := run.Policy{
		Stages: []run.Stage{
			{Dynamic: "metropolis", MaxSweeps: 128, MinRate: 0.1},
			{Dynamic: "chromatic"},
		},
		Chains:  16,
		Rhat:    1.05,
		Workers: 1,
	}
	b.ReportAllocs()
	sweeps := 0
	for b.Loop() {
		rep, _, err := run.Drive(built.Instance, 11, p)
		if err != nil {
			b.Fatal(err)
		}
		sweeps = rep.Sweeps
	}
	b.ReportMetric(float64(sweeps), "sweeps")
}

// BenchmarkDriveIsing measures one run.Drive per iteration under the
// policy of perfbench's ising-torus64-chromatic workload: the 64×64
// antiferromagnetic Ising torus (β = 0.8, λ = 1), chromatic, 16 chains,
// worst-vertex R̂ ≤ 1.05, one engine worker, the run package's budget and
// cadence. The instance is built once and warmed by one drive, which
// compiles its sampler rules; each timed drive builds its engine on the
// warm instance, as every request of the workload after the first does.
// The seed is fixed, so every iteration runs the same drive.
func BenchmarkDriveIsing(b *testing.B) {
	f, err := spec.Parse([]byte(`{"version":1,"name":"ising-torus64","graph":{"kind":"torus","n":64},"model":{"kind":"ising","lambda":1,"beta":0.8}}`))
	if err != nil {
		b.Fatal(err)
	}
	built, err := f.Build()
	if err != nil {
		b.Fatal(err)
	}
	p := run.Policy{
		Stages:     []run.Stage{{Dynamic: "chromatic"}},
		Chains:     16,
		MaxSweeps:  run.DefaultMaxSweeps,
		CheckEvery: run.DefaultCheckEvery,
		Rhat:       1.05,
		Workers:    1,
	}
	if _, _, err := run.Drive(built.Instance, 11, p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	sweeps := 0
	for b.Loop() {
		rep, _, err := run.Drive(built.Instance, 11, p)
		if err != nil {
			b.Fatal(err)
		}
		sweeps = rep.Sweeps
	}
	b.ReportMetric(float64(sweeps), "sweeps")
}

// BenchmarkRhatCheck measures one synchronous convergence check —
// Rhat.Check, the whole-chain R̂ plus the split-R̂/ESS pass, which
// run.Drive runs inline when no core is spare for the pass, the check ends
// its stage, or the policy sets MinESS — on the
// accumulator a drive of the 64×64 antiferromagnetic Ising torus (β = 0.8,
// λ = 1, chromatic, 16 chains) holds after 24 observed sweeps, where such
// a drive stops. It is the driver-diagnostics layer of the
// time-to-converged-chains benchmark. The engine runs on one worker, the
// Ising workload's setting, so the history is the same at every -cpu
// setting; the check runs its vertex blocks on every core it allows.
// Every vertex takes the 0/1 kernel, and its Geyer loops average 1.5 lag
// pairs per vertex, so it times the bit packing and the per-chain moments
// more than the ESS search.
func BenchmarkRhatCheck(b *testing.B) {
	spec, err := model.Ising(graph.Torus(64, 64), 0.8, 1)
	if err != nil {
		b.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sampler.Create("chromatic", in, sampler.Options{Chains: 16, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	s.(interface{ SetWorkers(int) }).SetWorkers(1)
	benchCheck(b, s, "chromatic", in, 24)
}

// BenchmarkRhatCheckCorpus measures the same check where the pass's search
// for the smallest ESS prunes: on hardcore-tree15-above (λ = 6, above the
// uniqueness threshold) under LocalMetropolis with 16 chains, seed 11 and
// two engine workers, after 128 observed sweeps — the metropolis stage cap
// of perfbench's corpus-escalate workload. A few vertices are stuck and
// most mix, so the Geyer loops run long and the pass stops most of them
// early. The engine's worker count is pinned because its default follows
// GOMAXPROCS, and the history would too.
func BenchmarkRhatCheckCorpus(b *testing.B) {
	data, err := os.ReadFile(filepath.Join("testdata", "corpus", "hardcore-tree15-above.json"))
	if err != nil {
		b.Fatal(err)
	}
	f, err := spec.Parse(data)
	if err != nil {
		b.Fatal(err)
	}
	built, err := f.Build()
	if err != nil {
		b.Fatal(err)
	}
	s, err := sampler.Create("metropolis", built.Instance, sampler.Options{Chains: 16, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	s.(interface{ SetWorkers(int) }).SetWorkers(2)
	benchCheck(b, s, "metropolis", built.Instance, 128)
}

// BenchmarkRhatCheckColoring measures the same check where every vertex
// takes the general kernel: the proper 10-colourings of the 48×48 torus
// under LubyGlauber with 16 chains, seed 11 and two engine workers, after
// 56 observed sweeps — where perfbench's coloring-torus48-luby-w2 drives
// stop. The engine's worker count is pinned because its default follows
// GOMAXPROCS, and the history would too.
func BenchmarkRhatCheckColoring(b *testing.B) {
	sp, err := model.Coloring(graph.Torus(48, 48), 10)
	if err != nil {
		b.Fatal(err)
	}
	in, err := gibbs.NewInstance(sp, nil)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sampler.Create("luby", in, sampler.Options{Chains: 16, Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	s.(interface{ SetWorkers(int) }).SetWorkers(2)
	benchCheck(b, s, "luby", in, 56)
}

// benchCheck advances the multi-chain sampler s of the named dynamic by
// the given number of sweeps, observing each, and times Rhat.Check on the
// accumulator. The warm-up check sizes the pass's scratch, so the timed
// checks allocate nothing, which the allocs/op gate holds.
func benchCheck(b *testing.B, s sampler.Sampler, dyn string, in *gibbs.Instance, sweeps int) {
	m := s.(sampler.MultiChain)
	rounds, err := sampler.SweepRounds(dyn, in)
	if err != nil {
		b.Fatal(err)
	}
	acc, err := sampler.NewRhat(m)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < sweeps; i++ {
		if err := m.Run(rounds); err != nil {
			b.Fatal(err)
		}
		acc.Observe()
	}
	if _, err := acc.Check(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := acc.Check(); err != nil {
			b.Fatal(err)
		}
	}
}
