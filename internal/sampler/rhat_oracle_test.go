package sampler

// rhat_oracle_test.go: the bit-identity property of the time-major Rhat
// accumulator. After every observation it must report exactly what the
// series-major reference (rhatref_test.go) reports — the same
// math.Float64bits for At, SplitAt and ESSAt on every vertex, and the same
// vertex and bits for Worst, WorstSplit and MinESS — on fabricated
// histories (compact and wide lattices, several alphabets and buffer
// capacities driven through repeated thinning, degenerate vertices) and on
// every corpus instance under every batched dynamic.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/spec"
	"repro/internal/state"
)

// latticeOnly is a MultiChain over a bare lattice: nothing ever runs, the
// test writes the history cell by cell.
type latticeOnly struct{ lat *state.Lattice }

func (l latticeOnly) Reset(int64) error       { return nil }
func (l latticeOnly) Run(int) error           { return nil }
func (l latticeOnly) State() dist.Config      { return l.lat.Chain(0) }
func (l latticeOnly) Rounds() int             { return 0 }
func (l latticeOnly) Chains() int             { return l.lat.Chains() }
func (l latticeOnly) Chain(c int) dist.Config { return l.lat.Chain(c) }
func (l latticeOnly) Lattice() *state.Lattice { return l.lat }

// sameBits fails unless the two (value, error) results agree exactly: the
// same float bits, or the same error text.
func sameBits(t *testing.T, what string, got float64, gerr error, want float64, werr error) {
	t.Helper()
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%s: error %v, reference %v", what, gerr, werr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v (bits %#x), reference %v (bits %#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// sameStats fails unless acc reports every statistic of the reference bit
// for bit.
func sameStats(t *testing.T, acc *Rhat, ref *rhatRef) {
	t.Helper()
	if acc.Count() != ref.Count() {
		t.Fatalf("Count() = %d, reference %d", acc.Count(), ref.Count())
	}
	gl, gs := acc.Retained()
	wl, ws := ref.Retained()
	if gl != wl || gs != ws {
		t.Fatalf("obs %d: Retained() = %d, %d; reference %d, %d", ref.Count(), gl, gs, wl, ws)
	}
	if acc.SplitReady() != ref.SplitReady() {
		t.Fatalf("obs %d: SplitReady() = %v, reference %v", ref.Count(), acc.SplitReady(), ref.SplitReady())
	}
	stats := []struct {
		name      string
		got, want func(int) (float64, error)
	}{
		{"At", acc.At, ref.At},
		{"SplitAt", acc.SplitAt, ref.SplitAt},
		{"ESSAt", acc.ESSAt, ref.ESSAt},
	}
	for v := 0; v < ref.n; v++ {
		for _, s := range stats {
			got, gerr := s.got(v)
			want, werr := s.want(v)
			sameBits(t, fmtStat(ref.Count(), s.name, v), got, gerr, want, werr)
		}
	}
	worsts := []struct {
		name      string
		got, want func() (int, float64, error)
	}{
		{"Worst", acc.Worst, ref.Worst},
		{"WorstSplit", acc.WorstSplit, ref.WorstSplit},
		{"MinESS", acc.MinESS, ref.MinESS},
	}
	for _, s := range worsts {
		gv, got, gerr := s.got()
		wv, want, werr := s.want()
		what := fmtStat(ref.Count(), s.name, -1)
		sameBits(t, what, got, gerr, want, werr)
		if gv != wv {
			t.Fatalf("%s: vertex %d, reference %d", what, gv, wv)
		}
	}
}

// fmtStat names a statistic for a failure message; v < 0 names a
// worst-vertex statistic.
func fmtStat(obs int, name string, v int) string {
	if v < 0 {
		return fmt.Sprintf("obs %d: %s", obs, name)
	}
	return fmt.Sprintf("obs %d: %s(%d)", obs, name, v)
}

// Vertex roles of the fabricated histories.
const (
	roleIID         = iota // a fresh uniform symbol every observation
	roleSticky             // uniform symbols held for three observations
	roleDrift              // a per-chain ramp: the chain's level moves over time
	roleFrozenApart        // each chain constant, chains disagreeing
	roleConstant           // one symbol everywhere, rewritten every time
	rolePinned             // written once before the first observation
	roleUnset              // never written: reads as dist.Unset
	roleFlicker            // symbols with occasional Unset cells
	numRoles
)

// fabricate writes observation t of the role-per-vertex history into lat.
func fabricate(lat *state.Lattice, q, t int, rng *dist.Xoshiro) {
	B := lat.Chains()
	for v := 0; v < lat.N(); v++ {
		for c := 0; c < B; c++ {
			switch v % numRoles {
			case roleIID:
				lat.Set(v, c, int(rng.Uint64()%uint64(q)))
			case roleSticky:
				if t%3 == 0 {
					lat.Set(v, c, int(rng.Uint64()%uint64(q)))
				}
			case roleDrift:
				lat.Set(v, c, (t/7+c)%q)
			case roleFrozenApart:
				lat.Set(v, c, c%q)
			case roleConstant:
				lat.Set(v, c, q-1)
			case rolePinned:
				if t == 0 {
					lat.Set(v, c, q/2)
				}
			case roleUnset:
			case roleFlicker:
				x := int(rng.Uint64() % uint64(q+1))
				if x == q {
					x = dist.Unset
				}
				lat.Set(v, c, x)
			}
		}
	}
}

// TestRhatMatchesReferenceFabricated drives both accumulators through
// fabricated histories long enough for at least three thinnings and
// compares every statistic after every observation.
func TestRhatMatchesReferenceFabricated(t *testing.T) {
	const B = 4
	for _, layout := range []struct {
		name string
		wide bool
	}{{"compact", false}, {"wide", true}} {
		for _, q := range []int{2, 3, 16} {
			for _, retain := range []int{8, 10, DefaultRetain} {
				name := fmt.Sprintf("%s/q=%d/retain=%d", layout.name, q, retain)
				t.Run(name, func(t *testing.T) {
					restore := func() {}
					if layout.wide {
						restore = state.SetCompactLimitForTest(0)
					}
					lat, err := state.New(numRoles, B, q)
					restore()
					if err != nil {
						t.Fatal(err)
					}
					if lat.Compact() == layout.wide {
						t.Fatalf("lattice compact=%v, want %v", lat.Compact(), !layout.wide)
					}
					m := latticeOnly{lat}
					acc, err := newRhat(m, retain)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := newRhatRef(m, retain)
					if err != nil {
						t.Fatal(err)
					}
					rng := dist.NewXoshiro(int64(1000*q+retain), 0)
					// 4·retain observations pass three thinnings; the
					// extra few end between retention strides.
					T := 4*retain + 5
					for i := 0; i < T; i++ {
						fabricate(lat, q, i, &rng)
						acc.Observe()
						ref.Observe()
						sameStats(t, acc, ref)
					}
					if _, stride := acc.Retained(); stride < 8 {
						t.Fatalf("stride %d after %d observations: fewer than three thinnings", stride, T)
					}
				})
			}
		}
	}
}

// TestRhatMatchesReferenceCorpus runs every corpus instance under every
// batched dynamic, on compact and wide lattices, and compares the
// accumulators after every observed sweep — both at the default capacity
// and at a small one that thins repeatedly.
func TestRhatMatchesReferenceCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	ins := map[string]*gibbs.Instance{}
	for _, p := range paths {
		name := strings.TrimSuffix(filepath.Base(p), ".json")
		if name == "golden_partition" {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := spec.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := f.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ins[name] = b.Instance
	}
	if len(ins) == 0 {
		t.Fatal("empty corpus")
	}
	const sweeps = 4*8 + 3
	for name, in := range ins {
		for _, wide := range []bool{false, true} {
			layout := "compact"
			if wide {
				layout = "wide"
			}
			for _, dyn := range MultiNames() {
				t.Run(name+"/"+layout+"/"+dyn, func(t *testing.T) {
					restore := func() {}
					if wide {
						restore = state.SetCompactLimitForTest(0)
					}
					s, err := Create(dyn, in, Options{Chains: 4, Seed: 29})
					restore()
					if err != nil {
						t.Fatal(err)
					}
					m := s.(MultiChain)
					if m.Lattice().Compact() == wide {
						t.Fatalf("lattice compact=%v, want %v", m.Lattice().Compact(), !wide)
					}
					rounds, err := SweepRounds(dyn, in)
					if err != nil {
						t.Fatal(err)
					}
					var accs []*Rhat
					var refs []*rhatRef
					for _, retain := range []int{8, DefaultRetain} {
						acc, err := newRhat(m, retain)
						if err != nil {
							t.Fatal(err)
						}
						ref, err := newRhatRef(m, retain)
						if err != nil {
							t.Fatal(err)
						}
						accs, refs = append(accs, acc), append(refs, ref)
					}
					for i := 0; i < sweeps; i++ {
						if err := m.Run(rounds); err != nil {
							t.Fatal(err)
						}
						for k := range accs {
							accs[k].Observe()
							refs[k].Observe()
							sameStats(t, accs[k], refs[k])
						}
					}
				})
			}
		}
	}
}
