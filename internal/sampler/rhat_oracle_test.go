package sampler

// rhat_oracle_test.go: the bit-identity property of the time-major Rhat
// accumulator. After every observation it must report exactly what the
// series-major reference (rhatref_test.go) reports — the same
// math.Float64bits for rhatAt, splitAt and essAt on every vertex, and the same
// vertex and bits for Worst, WorstSplit, MinESS and the three fields of
// Check — on fabricated histories (compact and wide lattices, several
// alphabets and buffer capacities driven through repeated thinning,
// degenerate vertices, and a history wide enough for Check's workers to
// share it in chunks at every GOMAXPROCS from 1 to 4) and on every corpus
// instance under every batched dynamic.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/psample"
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
	if acc.count != ref.Count() {
		t.Fatalf("count = %d, reference %d", acc.count, ref.Count())
	}
	gl, gs := acc.rlen, acc.stride
	wl, ws := ref.Retained()
	if gl != wl || gs != ws {
		t.Fatalf("obs %d: retained %d at stride %d; reference %d, %d", ref.Count(), gl, gs, wl, ws)
	}
	if acc.SplitReady() != ref.SplitReady() {
		t.Fatalf("obs %d: SplitReady() = %v, reference %v", ref.Count(), acc.SplitReady(), ref.SplitReady())
	}
	stats := []struct {
		name      string
		got, want func(int) (float64, error)
	}{
		{"At", acc.rhatAt, ref.At},
		{"SplitAt", acc.splitAt, ref.SplitAt},
		{"ESSAt", acc.essAt, ref.ESSAt},
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
	// Check is the three worsts in one pass; it needs SplitReady.
	d, err := acc.Check()
	if ref.n > 0 && !ref.SplitReady() {
		if err == nil {
			t.Fatalf("obs %d: Check() succeeded with %d retained observations", ref.Count(), gl)
		}
		return
	}
	if err != nil {
		t.Fatalf("obs %d: Check(): %v", ref.Count(), err)
	}
	fields := []struct {
		name string
		v    int
		x    float64
		want func() (int, float64, error)
	}{
		{"Check.Rhat", d.WorstVertex, d.Rhat, ref.Worst},
		{"Check.SplitRhat", d.SplitVertex, d.SplitRhat, ref.WorstSplit},
		{"Check.ESS", d.ESSVertex, d.ESS, ref.MinESS},
	}
	for _, f := range fields {
		wv, want, werr := f.want()
		what := fmtStat(ref.Count(), f.name, -1)
		sameBits(t, what, f.x, nil, want, werr)
		if f.v != wv {
			t.Fatalf("%s: vertex %d, reference %d", what, f.v, wv)
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
					acc, err := newRhat(m, retain, NewBacklog(0))
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
					if acc.stride < 8 {
						t.Fatalf("stride %d after %d observations: fewer than three thinnings", acc.stride, T)
					}
				})
			}
		}
	}
}

// TestRhatMatchesReferenceBlocks runs the fabricated histories at the
// scale where Check shares the vertices among workers: 259 vertices go to
// the caller and GOMAXPROCS − 1 goroutines in chunks of 32, 16, 10 and 8
// vertices for GOMAXPROCS 1 to 4 (the last chunk ragged). The roles
// repeat every numRoles vertices, so the frozen, constant and pinned
// vertices tie exactly across chunk boundaries, and the lowest vertex must
// win every tie whichever worker scanned which chunk.
func TestRhatMatchesReferenceBlocks(t *testing.T) {
	const (
		n = 259
		B = 4
	)
	for _, procs := range []int{1, 2, 3, 4} {
		for _, layout := range []struct {
			name string
			wide bool
		}{{"compact", false}, {"wide", true}} {
			for _, q := range []int{2, 16} {
				for _, retain := range []int{8, 10} {
					name := fmt.Sprintf("procs=%d/%s/q=%d/retain=%d", procs, layout.name, q, retain)
					t.Run(name, func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						if k := psample.DefaultWorkers(n); k != procs {
							t.Fatalf("DefaultWorkers(%d) = %d at GOMAXPROCS %d: the worker count must follow GOMAXPROCS", n, k, procs)
						}
						restore := func() {}
						if layout.wide {
							restore = state.SetCompactLimitForTest(0)
						}
						lat, err := state.New(n, B, q)
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
						rng := dist.NewXoshiro(int64(100*q+retain), 1)
						// 2·retain observations pass two thinnings.
						T := 2*retain + 3
						for i := 0; i < T; i++ {
							fabricate(lat, q, i, &rng)
							acc.Observe()
							ref.Observe()
							sameStats(t, acc, ref)
						}
						if acc.stride < 4 {
							t.Fatalf("stride %d after %d observations: fewer than two thinnings", acc.stride, T)
						}
					})
				}
			}
		}
	}
}

// TestRhatMatchesReferenceCorpus runs every corpus instance under every
// batched dynamic, on compact and wide lattices, and compares the
// accumulators after every observed sweep — both at the default capacity
// and at a small one that thins repeatedly.
func TestRhatMatchesReferenceCorpus(t *testing.T) {
	ins := corpusInstancesForTest(t)
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
						acc, err := newRhat(m, retain, NewBacklog(0))
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

// corpusInstancesForTest builds every corpus instance but the partition
// golden, keyed by name.
func corpusInstancesForTest(t *testing.T) map[string]*gibbs.Instance {
	t.Helper()
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
	return ins
}

// TestRhatLaunchMatchesReference launches passes onto a backlog (Queue)
// while the fabricated history goes on, through thinning after thinning of
// an 8-snapshot buffer, and holds each pass, when drained, to the reference's
// worst split R̂ and smallest ESS at the moment it was queued, bit for bit
// and vertex for vertex. Passes are queued at every observation and drained
// every sixth, so up to six wait at once while Observe appends to the
// buffer, refills the snapshots thinning dropped and thins it under them
// (finishing its own first); the race detector
// checks that no pass reads what Observe writes. With two accumulators the
// backlog is a drive's escalation: the first stops observing with its
// passes still queued and a second, on the same backlog and scratch, takes
// over (the escalation subtests). The backlog runs at most its core count
// of workers, and Drain returns only once every worker has exited.
func TestRhatLaunchMatchesReference(t *testing.T) {
	const (
		B      = 4
		q      = 3
		retain = 8
		// An accumulator observes for long enough to thin three times; the
		// second of two takes over while the first's passes wait.
		span     = 6*retain + 3
		handover = 22
	)
	type queued struct {
		at        int
		sv, ev    int
		split, es float64
	}
	for _, nacc := range []int{1, 2} {
		for _, n := range []int{numRoles, 259} {
			for _, cores := range []int{1, 3, 8} {
				for _, wide := range []bool{false, true} {
					name := fmt.Sprintf("n=%d/cores=%d/wide=%v", n, cores, wide)
					if nacc == 2 {
						name = "escalation/" + name
					}
					t.Run(name, func(t *testing.T) {
						backlog := NewBacklog(cores)
						var (
							lats []*state.Lattice
							accs []*Rhat
							refs []*rhatRef
						)
						for range nacc {
							restore := func() {}
							if wide {
								restore = state.SetCompactLimitForTest(0)
							}
							lat, err := state.New(n, B, q)
							restore()
							if err != nil {
								t.Fatal(err)
							}
							m := latticeOnly{lat}
							acc, err := newRhat(m, retain, backlog)
							if err != nil {
								t.Fatal(err)
							}
							ref, err := newRhatRef(m, retain)
							if err != nil {
								t.Fatal(err)
							}
							lats, accs, refs = append(lats, lat), append(accs, acc), append(refs, ref)
						}
						workers := func() int {
							backlog.mu.Lock()
							defer backlog.mu.Unlock()
							return backlog.active
						}
						var pending []queued
						drain := func() {
							t.Helper()
							res := backlog.Drain()
							if len(res) != len(pending) {
								t.Fatalf("Drain returned %d results for %d queued passes", len(res), len(pending))
							}
							if k := workers(); k != 0 {
								t.Fatalf("%d workers still running after Drain", k)
							}
							for i, d := range res {
								f := pending[i]
								what := fmt.Sprintf("pass queued at obs %d", f.at)
								sameBits(t, what+": split R̂", d.SplitRhat, nil, f.split, nil)
								sameBits(t, what+": ESS", d.ESS, nil, f.es, nil)
								if d.SplitVertex != f.sv || d.ESSVertex != f.ev {
									t.Fatalf("%s: vertices %d, %d; reference %d, %d", what, d.SplitVertex, d.ESSVertex, f.sv, f.ev)
								}
							}
							pending = pending[:0]
						}
						rng := dist.NewXoshiro(int64(n+cores), 2)
						total := span + (nacc-1)*handover
						queuedN, thinnedUnder, handedOver := 0, 0, false
						for i := 0; i < total; i++ {
							k := 0
							if nacc == 2 && i >= handover {
								k = 1
								if i == handover && len(pending) > 0 {
									handedOver = true
								}
							}
							acc, ref := accs[k], refs[k]
							fabricate(lats[k], q, i, &rng)
							stride := acc.stride
							acc.Observe()
							ref.Observe()
							if acc.stride != stride && len(pending) > 0 {
								thinnedUnder++
							}
							if acc.SplitReady() {
								if err := acc.Queue(); err != nil {
									t.Fatalf("obs %d: Queue: %v", i, err)
								}
								if k := workers(); k > cores {
									t.Fatalf("obs %d: %d workers on a backlog of %d cores", i, k, cores)
								}
								f := queued{at: i}
								f.sv, f.split, _ = ref.WorstSplit()
								f.ev, f.es, _ = ref.MinESS()
								pending = append(pending, f)
								queuedN++
							}
							if i%6 == 5 {
								drain()
							}
						}
						drain()
						if queuedN == 0 || thinnedUnder < 3 {
							t.Fatalf("%d passes queued, %d thinnings with passes queued; want passes across at least three", queuedN, thinnedUnder)
						}
						if nacc == 2 && !handedOver {
							t.Fatal("the second accumulator took over with no pass of the first queued")
						}
					})
				}
			}
		}
	}
}
