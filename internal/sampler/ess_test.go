package sampler

// ess_test.go: the split-R̂ and effective-sample-size surface of the Rhat
// accumulator against analytic expectations on fabricated histories — iid
// chains (ESS ≈ pooled count), perfectly correlated chains (ESS collapses
// by the block length), frozen-apart chains (ESS 0, split R̂ +Inf) — and
// the pinned-vertex convention through real batched LubyGlauber and
// LocalMetropolis runs.

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/psample"
)

// fabric returns a 2-vertex q=16 coloring batch whose lattice the test
// writes directly, plus its accumulator (observations are fabricated, the
// engine never runs).
func fabric(t *testing.T, B int) (*psample.BatchChromaticGlauber, *Rhat) {
	t.Helper()
	spec, err := model.Coloring(graph.Path(2), 16)
	if err != nil {
		t.Fatal(err)
	}
	b := rhatBatch(t, spec, nil, B, 1)
	acc, err := NewRhat(b)
	if err != nil {
		t.Fatal(err)
	}
	return b, acc
}

// TestESSIIDChains: independent uniform draws have integrated
// autocorrelation time τ = 1, so ESS must come out near the pooled
// observation count B·T (the Geyer estimator is noisy but unbiased-ish;
// a generous band around 1 suffices to separate it from any correlated
// regime).
func TestESSIIDChains(t *testing.T) {
	const B, T = 4, 200
	b, acc := fabric(t, B)
	lat := b.Lattice()
	rng := dist.NewXoshiro(99, 0)
	for i := 0; i < T; i++ {
		for c := 0; c < B; c++ {
			lat.Set(0, c, int(rng.Uint64()%16))
			lat.Set(1, c, int(rng.Uint64()%16))
		}
		acc.Observe()
	}
	if !acc.SplitReady() {
		t.Fatal("SplitReady false after 200 observations")
	}
	for v := 0; v < 2; v++ {
		ess, err := acc.ESSAt(v)
		if err != nil {
			t.Fatal(err)
		}
		ratio := ess / float64(B*T)
		if ratio < 0.5 || ratio > 1.05 {
			t.Errorf("iid ESS(%d)/(B·T) = %v, want ≈ 1", v, ratio)
		}
		rh, err := acc.SplitAt(v)
		if err != nil {
			t.Fatal(err)
		}
		if rh < 0.9 || rh > 1.15 {
			t.Errorf("iid split R̂(%d) = %v, want ≈ 1", v, rh)
		}
	}
}

// TestESSCorrelatedChains: repeating every iid draw k times multiplies the
// integrated autocorrelation time by ≈ k, so ESS must shrink to about
// B·T/k — the statistic the whole adaptive-stopping layer leans on.
func TestESSCorrelatedChains(t *testing.T) {
	const B, T, k = 4, 240, 4
	b, acc := fabric(t, B)
	lat := b.Lattice()
	rng := dist.NewXoshiro(7, 0)
	held := make([]int, B)
	for i := 0; i < T; i++ {
		if i%k == 0 {
			for c := 0; c < B; c++ {
				held[c] = int(rng.Uint64() % 16)
			}
		}
		for c := 0; c < B; c++ {
			lat.Set(0, c, held[c])
			lat.Set(1, c, held[c])
		}
		acc.Observe()
	}
	ess, err := acc.ESSAt(0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := ess / float64(B*T)
	// τ ≈ k ⇒ ratio ≈ 1/k; allow the estimator slack on either side while
	// keeping it clearly below the iid band.
	if ratio < 1.0/(2.5*k) || ratio > 2.5/k {
		t.Errorf("block-correlated ESS/(B·T) = %v, want ≈ 1/%d", ratio, k)
	}
}

// TestESSFrozenApart: chains constant at different values — no further
// observation can reconcile them, so ESS is 0 and split R̂ +Inf.
func TestESSFrozenApart(t *testing.T) {
	const B, T = 2, 40
	b, acc := fabric(t, B)
	lat := b.Lattice()
	for i := 0; i < T; i++ {
		lat.Set(0, 0, 1)
		lat.Set(0, 1, 9)
		lat.Set(1, 0, 3)
		lat.Set(1, 1, 3)
		acc.Observe()
	}
	if ess, err := acc.ESSAt(0); err != nil || ess != 0 {
		t.Errorf("frozen-apart ESS = %v, %v; want 0", ess, err)
	}
	if rh, err := acc.SplitAt(0); err != nil || !math.IsInf(rh, 1) {
		t.Errorf("frozen-apart split R̂ = %v, %v; want +Inf", rh, err)
	}
	// Vertex 1 is constant and identical everywhere: perfectly estimated.
	if ess, err := acc.ESSAt(1); err != nil || ess != float64(B*T) {
		t.Errorf("identical-constant ESS = %v, %v; want %d", ess, err, B*T)
	}
	if rh, err := acc.SplitAt(1); err != nil || rh != 1 {
		t.Errorf("identical-constant split R̂ = %v, %v; want 1", rh, err)
	}
	if v, ess, err := acc.MinESS(); err != nil || v != 0 || ess != 0 {
		t.Errorf("MinESS() = %d, %v, %v; want vertex 0, 0", v, ess, err)
	}
	if v, rh, err := acc.WorstSplit(); err != nil || v != 0 || !math.IsInf(rh, 1) {
		t.Errorf("WorstSplit() = %d, %v, %v; want vertex 0, +Inf", v, rh, err)
	}
}

// TestESSThinningKeepsScale: past the buffer capacity the retained series
// thins but the ESS stays on the full-history scale (stride-scaled), so an
// iid history still reports ESS ≈ B·Count even when Count ≫ retain.
func TestESSThinningKeepsScale(t *testing.T) {
	const B, T = 2, 600 // > DefaultRetain, forces at least one thinning
	b, acc := fabric(t, B)
	lat := b.Lattice()
	rng := dist.NewXoshiro(42, 1)
	for i := 0; i < T; i++ {
		for c := 0; c < B; c++ {
			lat.Set(0, c, int(rng.Uint64()%16))
			lat.Set(1, c, int(rng.Uint64()%16))
		}
		acc.Observe()
	}
	rlen, stride := acc.Retained()
	if stride < 2 || rlen >= DefaultRetain {
		t.Fatalf("Retained() = %d, %d; expected a thinned buffer", rlen, stride)
	}
	ess, err := acc.ESSAt(0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := ess / float64(B*T)
	if ratio < 0.4 || ratio > 1.05 {
		t.Errorf("thinned iid ESS/(B·T) = %v, want ≈ 1", ratio)
	}
}

// TestESSPinnedVertexBatchedEngines runs the real batched LubyGlauber and
// LocalMetropolis engines with a pinned vertex: the pinned vertex never
// moves in any chain, so its split R̂ is exactly 1 and its ESS the full
// pooled count, while free vertices report positive ESS.
func TestESSPinnedVertexBatchedEngines(t *testing.T) {
	spec, err := model.Hardcore(graph.Cycle(6), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pin := dist.NewConfig(6)
	pin[3] = model.Out
	in, err := gibbs.NewInstance(spec, pin)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"luby", "metropolis"} {
		t.Run(name, func(t *testing.T) {
			s, err := Create(name, in, Options{Chains: 4, Seed: 13})
			if err != nil {
				t.Fatal(err)
			}
			m := s.(MultiChain)
			acc, err := NewRhat(m)
			if err != nil {
				t.Fatal(err)
			}
			sweep, err := SweepRounds(name, in)
			if err != nil {
				t.Fatal(err)
			}
			const obs = 40
			for i := 0; i < obs; i++ {
				if err := m.Run(sweep); err != nil {
					t.Fatal(err)
				}
				acc.Observe()
			}
			if rh, err := acc.SplitAt(3); err != nil || rh != 1 {
				t.Errorf("split R̂(pinned) = %v, %v; want exactly 1", rh, err)
			}
			if ess, err := acc.ESSAt(3); err != nil || ess != float64(4*obs) {
				t.Errorf("ESS(pinned) = %v, %v; want %d", ess, err, 4*obs)
			}
			for _, v := range []int{0, 1} {
				ess, err := acc.ESSAt(v)
				if err != nil {
					t.Fatal(err)
				}
				if ess <= 0 || ess > float64(4*obs) {
					t.Errorf("ESS(free vertex %d) = %v, want in (0, %d]", v, ess, 4*obs)
				}
			}
			// Also pin the per-vertex counters the psample engines expose:
			// counters advanced, so the driver's rate signal is live.
			switch e := m.(type) {
			case *psample.BatchLubyGlauber:
				if e.Updates() <= 0 {
					t.Error("BatchLubyGlauber.Updates() = 0 after runs")
				}
			case *psample.BatchLocalMetropolis:
				if e.Accepts() <= 0 {
					t.Error("BatchLocalMetropolis.Accepts() = 0 after runs")
				}
			}
		})
	}
}

// TestBatchUpdatesCounter: the chromatic engine's update counter is exactly
// sweeps × free vertices × chains (every scheduled update unconditional).
func TestBatchUpdatesCounter(t *testing.T) {
	spec, err := model.Hardcore(graph.Cycle(6), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pin := dist.NewConfig(6)
	pin[3] = model.Out
	b := rhatBatch(t, spec, pin, 3, 5)
	if err := b.Run(7); err != nil {
		t.Fatal(err)
	}
	want := int64(7 * 5 * 3) // 7 sweeps × 5 free vertices × 3 chains
	if got := b.Updates(); got != want {
		t.Errorf("Updates() = %d, want %d", got, want)
	}
	if err := b.Reset(5); err != nil {
		t.Fatal(err)
	}
	if got := b.Updates(); got != 0 {
		t.Errorf("Updates() after Reset = %d, want 0", got)
	}
}
