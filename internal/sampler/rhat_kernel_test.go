package sampler

// rhat_kernel_test.go: the integer kernels of rhat.go. FuzzRhatPass holds
// the pass to the integer oracle on random histories and the three
// kernels to each other; TestRhatNearFloatFormula bounds how far the integer
// formulas moved the statistics from the float64 formulas they replaced;
// TestRhatCorrectlyRounded checks the kernel's quotients against exact
// rational arithmetic.

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"repro/internal/dist"
	"repro/internal/state"
)

// FuzzRhatPass drives an accumulator and the oracle through a random
// history — n ≤ 4 vertices, 2 to 130 chains (across a 64-chain word), q ∈
// {2, 3, 10, 255}, some vertices 0/1 only, some with Unset cells, up to 600
// observations at retain 8 or 10 so the buffer thins several times — and
// compares every vertex's split R̂ and ESS bit for bit whenever the buffer
// is ready. Every kernel that can load a vertex — the 0/1, the lane and
// the general kernel — must give the same bits.
func FuzzRhatPass(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(16), uint8(0), uint16(40), false)
	f.Add(uint64(2), uint8(4), uint8(130), uint8(1), uint16(600), true)
	f.Add(uint64(3), uint8(1), uint8(2), uint8(2), uint16(100), false)
	f.Add(uint64(4), uint8(2), uint8(65), uint8(3), uint16(333), true)
	f.Add(uint64(5), uint8(2), uint8(128), uint8(2), uint16(250), false)
	f.Add(uint64(6), uint8(1), uint8(14), uint8(1), uint16(90), false)
	f.Fuzz(func(t *testing.T, seed uint64, n, b, qi uint8, obs uint16, wide bool) {
		qs := []int{2, 3, 10, 255}
		nv := 1 + int(n)%4
		B := 2 + int(b)%129
		q := qs[int(qi)%len(qs)]
		T := int(obs) % 601
		retain := 8 + 2*int(seed%2)
		restore := func() {}
		if wide {
			restore = state.SetCompactLimitForTest(0)
		}
		lat, err := state.New(nv, B, q)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		m := latticeOnly{lat}
		acc, err := newRhat(m, retain, NewBacklog(0))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRhatRef(m, retain)
		if err != nil {
			t.Fatal(err)
		}
		rng := dist.NewXoshiro(int64(seed), 7)
		var sc, other vertexScratch
		kernels := []struct {
			name string
			load func(int, *vertexScratch) bool
		}{
			{"0/1 kernel", acc.pack},
			{"lane kernel", acc.packLanes},
			{"general kernel", func(v int, sc *vertexScratch) bool { acc.gather(v, sc); return true }},
		}
		for i := 0; i < T; i++ {
			for v := 0; v < nv; v++ {
				for c := 0; c < B; c++ {
					var x int
					switch (int(seed>>8) + v) % 3 {
					case 0: // 0/1 cells only
						x = int(rng.Uint64() % 2)
					case 1: // the alphabet
						x = int(rng.Uint64() % uint64(q))
					default: // the alphabet and Unset
						x = int(rng.Uint64()%uint64(q+1)) - 1
					}
					lat.Set(v, c, x)
				}
			}
			acc.Observe()
			ref.Observe()
			if !acc.SplitReady() || (i%7 != 0 && i != T-1) {
				continue
			}
			for v := 0; v < nv; v++ {
				split, ess := acc.vertexStats(v, &sc, math.Inf(1))
				wsplit, _ := ref.SplitAt(v)
				wess, _ := ref.ESSAt(v)
				what := fmt.Sprintf("obs %d vertex %d", i, v)
				sameBits(t, what+": split R̂", split, nil, wsplit, nil)
				sameBits(t, what+": ESS", ess, nil, wess, nil)
				for _, k := range kernels {
					if !k.load(v, &other) {
						continue
					}
					ksplit, kess := acc.stats(&other, math.Inf(1))
					sameBits(t, what+": "+k.name+" split R̂", ksplit, nil, split, nil)
					sameBits(t, what+": "+k.name+" ESS", kess, nil, ess, nil)
				}
			}
		}
	})
}

// TestRhatNearFloatFormula holds the pass to the float64 formulas it
// replaced (floatSplitAt, floatESSAt) on every corpus instance under
// every batched dynamic, at every vertex after every observed sweep,
// within relative 1e-9.
func TestRhatNearFloatFormula(t *testing.T) {
	for name, in := range corpusInstancesForTest(t) {
		for _, dyn := range MultiNames() {
			s, err := Create(dyn, in, Options{Chains: 16, Seed: 29})
			if err != nil {
				t.Fatal(err)
			}
			m := s.(MultiChain)
			rounds, err := SweepRounds(dyn, in)
			if err != nil {
				t.Fatal(err)
			}
			acc, err := newRhat(m, 8, NewBacklog(0))
			if err != nil {
				t.Fatal(err)
			}
			ref, err := newRhatRef(m, 8)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				if err := m.Run(rounds); err != nil {
					t.Fatal(err)
				}
				acc.Observe()
				ref.Observe()
				if !acc.SplitReady() {
					continue
				}
				for v := 0; v < ref.n; v++ {
					split, _ := acc.splitAt(v)
					ess, _ := acc.essAt(v)
					fsplit, _ := ref.floatSplitAt(v)
					fess, _ := ref.floatESSAt(v)
					for _, c := range []struct {
						what      string
						got, want float64
					}{{"split R̂", split, fsplit}, {"ESS", ess, fess}} {
						if c.got == c.want || math.Abs(c.got-c.want) <= 1e-9*math.Abs(c.want) {
							continue
						}
						t.Errorf("%s/%s obs %d vertex %d: %s %v, float formula %v", name, dyn, i, v, c.what, c.got, c.want)
					}
				}
			}
		}
	}
}

// TestRhatCorrectlyRounded loads random histories by every kernel and
// checks, against exact rational arithmetic, that the sum of the half
// variances, the within-chain variance W and every lag autocovariance the
// Geyer loop can ask for are the correctly rounded float64 values.
func TestRhatCorrectlyRounded(t *testing.T) {
	rng := dist.NewXoshiro(41, 0)
	for trial := 0; trial < 60; trial++ {
		B := 2 + rng.IntN(40)
		q := []int{2, 3, 10, 255}[trial%4]
		L := 4 + rng.IntN(40)
		lat, err := state.New(1, B, q)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := newRhat(latticeOnly{lat}, 64, NewBacklog(0))
		if err != nil {
			t.Fatal(err)
		}
		x := make([][]int64, B) // chain c's retained series
		for i := 0; i < L; i++ {
			for c := 0; c < B; c++ {
				s := int(rng.Uint64()%uint64(q+1)) - 1
				switch trial / 4 % 3 {
				case 0: // 0/1 cells: the 0/1 kernel
					s = int(rng.Uint64() % uint64(min(q, 2)))
				case 1: // symbols, no Unset: the lane kernel below 128
					s = int(rng.Uint64() % uint64(q))
				}
				lat.Set(0, c, s)
				x[c] = append(x[c], int64(s))
			}
			acc.Observe()
		}
		m := L / 2
		var sc vertexScratch
		acc.load(0, &sc)
		within, _, w, _ := sc.moments(m)
		rat := func(n int64) *big.Rat { return new(big.Rat).SetInt64(n) }
		// sqDev is Σ (x − mean)² over xs, exactly.
		sqDev := func(xs []int64) *big.Rat {
			var s int64
			for _, v := range xs {
				s += v
			}
			mean := new(big.Rat).SetFrac64(s, int64(len(xs)))
			acc := new(big.Rat)
			for _, v := range xs {
				d := new(big.Rat).Sub(rat(v), mean)
				acc.Add(acc, d.Mul(d, d))
			}
			return acc
		}
		wantWithin, wantW := new(big.Rat), new(big.Rat)
		for c := 0; c < B; c++ {
			wantWithin.Add(wantWithin, sqDev(x[c][:m]))
			wantWithin.Add(wantWithin, sqDev(x[c][L-m:]))
			wantW.Add(wantW, sqDev(x[c]))
		}
		wantWithin.Quo(wantWithin, rat(int64(m-1)))
		wantW.Quo(wantW, rat(int64(B*(L-1))))
		check := func(what string, got float64, want *big.Rat) {
			t.Helper()
			if f, _ := want.Float64(); math.Float64bits(f) != math.Float64bits(got) {
				t.Fatalf("trial %d (B=%d q=%d L=%d, kernel %d): %s = %v, correctly rounded %v", trial, B, q, L, sc.kernel, what, got, f)
			}
		}
		check("Σ half variances", within, wantWithin)
		check("W", w, wantW)
		for l := 1; l+1 < L; l += 2 {
			g0, g1 := sc.gammaPair(l)
			for k, g := range []float64{g0, g1} {
				lag := l + k
				want := new(big.Rat)
				for c := 0; c < B; c++ {
					var s int64
					for _, v := range x[c] {
						s += v
					}
					mean := new(big.Rat).SetFrac64(s, int64(L))
					for i := 0; i+lag < L; i++ {
						a := new(big.Rat).Sub(rat(x[c][i]), mean)
						b := new(big.Rat).Sub(rat(x[c][i+lag]), mean)
						want.Add(want, a.Mul(a, b))
					}
				}
				want.Quo(want, rat(int64(B*L)))
				check(fmt.Sprintf("autocovariance at lag %d", lag), g, want)
			}
		}
	}
}
