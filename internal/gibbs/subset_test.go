package gibbs

// subset_test.go pins the fused kernels to the referees: the heat-bath
// kernel bound by BindVertexSubset must draw exactly what
// dist.SampleWeights draws from CondWeights for the same uniforms, touch
// only the listed chains, and on a one-chain list update like a
// sequential heat-bath step; FilterWeightBatch must reproduce FilterWeight
// per chain across arities and representations.

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/dist"
	"repro/internal/state"
)

// TestSampleVertexSubsetMatchesReference drives the bound kernel over
// irregular chain subsets on all three plan paths (q=2 and q=3 pair-only,
// buffered mixed-arity), both representations, and with the cond cache
// off and on, checking each listed chain against the referee draw and
// each unlisted chain for bit-exact preservation.
func TestSampleVertexSubsetMatchesReference(t *testing.T) {
	for _, spec := range []struct {
		name string
		s    *Spec
	}{{"q2", unaryFirstSpec(t)}, {"q3-pair", pairSpecQ3(t)}, {"q3-mixed", batchSpec(t)}} {
		t.Run(spec.name, func(t *testing.T) {
			for _, rep := range []struct {
				name string
				wide bool
			}{{"compact", false}, {"wide", true}} {
				t.Run(rep.name, func(t *testing.T) {
					if rep.wide {
						defer state.SetCompactLimitForTest(0)()
					}
					for _, cache := range []bool{false, true} {
						testSubsetAgainstReference(t, spec.s, cache, rep.wide)
					}
				})
			}
		})
	}
}

func testSubsetAgainstReference(t *testing.T, s *Spec, cache, wide bool) {
	t.Helper()
	eng := Compile(s)
	if !cache {
		eng = compilePlanOnly(s, DefaultTableCap)
	}
	n, q := eng.N(), eng.Q()
	const B = 8
	lat, err := state.Pack(n, q, randomChains(n, q, B, 31))
	if err != nil {
		t.Fatal(err)
	}
	if lat.Compact() == wide {
		t.Fatalf("lattice Compact() = %v with wide=%v", lat.Compact(), wide)
	}
	if err := lat.CheckAssigned(); err != nil {
		t.Fatal(err)
	}
	kernel, err := eng.BindVertexSubset(lat)
	if err != nil {
		t.Fatal(err)
	}
	subsets := [][]int32{
		{0}, {B - 1}, {2, 5}, {0, 3, 4, 7}, {1, 2, 3, 4, 5, 6}, {0, 1, 2, 3, 4, 5, 6, 7},
	}
	sc := NewBatchScratch(B)
	buf := make([]float64, B*q)
	ref := make([]float64, q)
	before := make([]int, B)
	rng := dist.NewXoshiro(11, 0)
	for sweep := 0; sweep < 8; sweep++ {
		for v := 0; v < n; v++ {
			sub := subsets[(sweep*n+v)%len(subsets)]
			for c := 0; c < B; c++ {
				before[c] = lat.Get(v, c)
			}
			// The referee draw replays the same generator in list order:
			// copy the value-type RNG before the kernel consumes it.
			shadow := rng
			want := make(map[int32]int, len(sub))
			for _, ch := range sub {
				w, err := eng.CondWeights(lat.Chain(int(ch)), v, ref)
				if err != nil {
					t.Fatal(err)
				}
				if want[ch], err = dist.SampleWeights(w, &shadow); err != nil {
					t.Fatal(err)
				}
			}
			if err := kernel(v, sub, buf, sc, &rng); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < B; c++ {
				got := lat.Get(v, c)
				if x, in := want[int32(c)]; in {
					if got != x {
						t.Fatalf("cache=%v sweep %d v=%d chain %d: subset drew %d, SampleWeights %d", cache, sweep, v, c, got, x)
					}
				} else if got != before[c] {
					t.Fatalf("sweep %d v=%d chain %d: unlisted chain changed %d -> %d", sweep, v, c, before[c], got)
				}
			}
		}
	}
}

// TestSampleVertexSubsetMatchesHeatBath pins the one-chain list, the
// sequential Glauber chain's update: binding once and updating a single
// chain per call must track a dist.Config heat-bath mirror — CondWeights
// then dist.SampleWeights on the same uniform — symbol for symbol.
func TestSampleVertexSubsetMatchesHeatBath(t *testing.T) {
	for _, spec := range []struct {
		name string
		s    *Spec
	}{{"q2", unaryFirstSpec(t)}, {"q3-mixed", batchSpec(t)}} {
		t.Run(spec.name, func(t *testing.T) {
			eng := Compile(spec.s)
			n, q := eng.N(), eng.Q()
			const B = 4
			mirror := randomChains(n, q, B, 53)
			lat, err := state.Pack(n, q, mirror)
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
			buf := make([]float64, q)
			cond := make([]float64, q)
			rng := dist.NewXoshiro(99, 1)
			shadow := rng
			for sweep := 0; sweep < 10; sweep++ {
				for v := 0; v < n; v++ {
					c := (sweep + v) % B
					if err := kernel(v, []int32{int32(c)}, buf, nil, &rng); err != nil {
						t.Fatal(err)
					}
					w, err := eng.CondWeights(mirror[c], v, cond)
					if err != nil {
						t.Fatal(err)
					}
					x, err := dist.SampleWeights(w, &shadow)
					if err != nil {
						t.Fatal(err)
					}
					mirror[c][v] = x
					if got := lat.Get(v, c); got != x {
						t.Fatalf("sweep %d v=%d chain %d: subset %d != heat-bath %d", sweep, v, c, got, x)
					}
				}
			}
		})
	}
}

// TestSampleVertexSubsetRejectsBadInput covers the binding's lattice check
// and the bound kernel's empty-list no-op, which must draw nothing.
func TestSampleVertexSubsetRejectsBadInput(t *testing.T) {
	eng := Compile(batchSpec(t))
	n, q := eng.N(), eng.Q()
	const B = 3
	short, err := state.New(n-1, B, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.BindVertexSubset(short); err == nil {
		t.Error("short lattice accepted")
	}
	lat, err := state.Pack(n, q, randomChains(n, q, B, 3))
	if err != nil {
		t.Fatal(err)
	}
	kernel, err := eng.BindVertexSubset(lat)
	if err != nil {
		t.Fatal(err)
	}
	before := lat.Chain(0)
	rng := dist.NewXoshiro(1, 0)
	start := rng
	if err := kernel(0, nil, make([]float64, B*q), nil, &rng); err != nil {
		t.Errorf("empty subset: err = %v, want nil", err)
	}
	if rng != start || !slices.Equal(lat.Chain(0), before) {
		t.Error("empty subset drew or wrote")
	}
}

// TestFilterWeightBatchMatchesSingle pins the batched filter to
// FilterWeight per chain on every tabled factor, across toggled subsets of
// each factor's scope, chain spans, and representations.
func TestFilterWeightBatchMatchesSingle(t *testing.T) {
	for _, rep := range []struct {
		name string
		wide bool
	}{{"compact", false}, {"wide", true}} {
		t.Run(rep.name, func(t *testing.T) {
			eng := Compile(batchSpec(t))
			n, q := eng.N(), eng.Q()
			const B = 7
			if rep.wide {
				defer state.SetCompactLimitForTest(0)()
			}
			oldCfg, propCfg := randomChains(n, q, B, 17), randomChains(n, q, B, 18)
			old, err := state.Pack(n, q, oldCfg)
			if err != nil {
				t.Fatal(err)
			}
			prop, err := state.Pack(n, q, propCfg)
			if err != nil {
				t.Fatal(err)
			}
			sc := NewBatchScratch(B)
			out := make([]float64, B)
			for i := range eng.factors {
				f := &eng.factors[i]
				if f.table == nil {
					continue
				}
				// Distinct scope vertices, then every nonempty prefix of them
				// as the toggled set (covers k = 1..arity).
				var scope []int
				for _, u := range f.scope {
					seen := false
					for _, s := range scope {
						if s == int(u) {
							seen = true
							break
						}
					}
					if !seen {
						scope = append(scope, int(u))
					}
				}
				for k := 1; k <= len(scope); k++ {
					verts := scope[:k]
					for _, span := range [][2]int{{0, B}, {2, 5}, {B - 1, B}} {
						c0, c1 := span[0], span[1]
						if err := eng.FilterWeightBatch(i, old, prop, c0, c1, verts, out, sc); err != nil {
							t.Fatal(err)
						}
						for c := c0; c < c1; c++ {
							want, err := eng.FilterWeight(i, oldCfg[c], propCfg[c], verts)
							if err != nil {
								t.Fatal(err)
							}
							if out[c-c0] != want {
								t.Fatalf("factor %d verts %v chain %d: batch %v != single %v", i, verts, c, out[c-c0], want)
							}
						}
					}
				}
			}
		})
	}
}

// TestFilterWeightBatchValidation covers the argument and capability
// checks: bad factor index, bad range, short output, closure factors
// (ErrNotTabled), oversized toggle sets, vertices outside the scope, and
// the empty-toggle identity row.
func TestFilterWeightBatchValidation(t *testing.T) {
	eng := CompileCap(batchSpec(t), 0) // every factor closure-backed
	n, q := eng.N(), eng.Q()
	const B = 3
	old, err := state.Pack(n, q, randomChains(n, q, B, 5))
	if err != nil {
		t.Fatal(err)
	}
	prop, err := state.Pack(n, q, randomChains(n, q, B, 6))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, B)
	closure := -1
	for i := range eng.factors {
		if eng.factors[i].table == nil && len(eng.factors[i].scope) > 0 {
			closure = i
			break
		}
	}
	if closure < 0 {
		t.Fatal("capped compile produced no closure-backed factor")
	}
	cv := int(eng.factors[closure].scope[0])
	if err := eng.FilterWeightBatch(closure, old, prop, 0, B, []int{cv}, out, nil); !errors.Is(err, ErrNotTabled) {
		t.Errorf("closure factor: err = %v, want ErrNotTabled", err)
	}
	eng = Compile(batchSpec(t))
	if err := eng.FilterWeightBatch(-1, old, prop, 0, B, []int{0}, out, nil); err == nil {
		t.Error("negative factor accepted")
	}
	if err := eng.FilterWeightBatch(0, old, prop, 2, 1, []int{0}, out, nil); err == nil {
		t.Error("empty chain range accepted")
	}
	if err := eng.FilterWeightBatch(0, old, prop, 0, B+1, []int{0}, out, nil); err == nil {
		t.Error("over-range chains accepted")
	}
	if err := eng.FilterWeightBatch(0, old, prop, 0, B, []int{0}, out[:1], nil); err == nil {
		t.Error("short output accepted")
	}
	big := make([]int, filterMaxToggle+1)
	if err := eng.FilterWeightBatch(0, old, prop, 0, B, big, out, nil); err == nil {
		t.Error("oversized toggle set accepted")
	}
	// Factor 0 is "tri" with scope {0,1,2}: vertex 4 is outside it.
	if err := eng.FilterWeightBatch(0, old, prop, 0, B, []int{4}, out, nil); err == nil {
		t.Error("out-of-scope vertex accepted")
	}
	if err := eng.FilterWeightBatch(0, old, prop, 0, B, nil, out, nil); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < B; c++ {
		if out[c] != 1 {
			t.Errorf("empty toggle set: out[%d] = %v, want 1", c, out[c])
		}
	}
}
