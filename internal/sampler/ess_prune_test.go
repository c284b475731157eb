package sampler

// ess_prune_test.go: the branch-and-bound search for the smallest ESS. A
// pass stops a vertex's Geyer loop once the vertex's ESS provably exceeds
// the smallest ESS its worker has found, yet the check must report the
// unbounded scan's fields bit for bit and vertex for vertex — inline and
// queued on a backlog, at one to four workers — and on the corpus history that
// BenchmarkRhatCheckCorpus times it must skip most of the lag work.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/dist"
	"repro/internal/spec"
	"repro/internal/state"
)

// fullScan is the unbounded sequential scan: every vertex's exact split R̂
// and ESS, the worst split R̂ and the smallest ESS each at the lowest vertex
// attaining it, and the Geyer lag pairs the scan computed.
func fullScan(acc *Rhat) (d Diagnostics, pairs int) {
	d = noPass
	var sc vertexScratch
	for v := 0; v < acc.n; v++ {
		split, ess := acc.vertexStats(v, &sc, math.Inf(1))
		if split > d.SplitRhat {
			d.SplitRhat, d.SplitVertex = split, v
		}
		if ess < d.ESS {
			d.ESS, d.ESSVertex = ess, v
		}
	}
	return d, sc.pairs
}

// takePairs returns the Geyer lag pairs the passes of the accumulator's
// backlog have computed since the last call — on the caller's scratch, on
// Check's goroutines and on the background workers, all of them exited
// once the backlog has drained — and resets the counts.
func takePairs(acc *Rhat) int {
	q := acc.q
	scratch := []*vertexScratch{&q.own}
	for _, w := range q.inline.workers {
		scratch = append(scratch, &w.vertexScratch)
	}
	scratch = append(scratch, q.free...)
	n := 0
	for _, sc := range scratch {
		n += sc.pairs
		sc.pairs = 0
	}
	return n
}

// samePass fails unless the pass's split R̂ and ESS fields are the full
// scan's, bit for bit and vertex for vertex.
func samePass(t *testing.T, what string, got, want Diagnostics) {
	t.Helper()
	sameBits(t, what+": split R̂", got.SplitRhat, nil, want.SplitRhat, nil)
	sameBits(t, what+": ESS", got.ESS, nil, want.ESS, nil)
	if got.SplitVertex != want.SplitVertex || got.ESSVertex != want.ESSVertex {
		t.Fatalf("%s: vertices %d, %d; full scan %d, %d", what, got.SplitVertex, got.ESSVertex, want.SplitVertex, want.ESSVertex)
	}
}

// The twins of the "twins" history: the same retained series, and the
// higher one's skipped observations set its chains apart.
const twinLo, twinHi = 40, 200

// pruneHistories are fabricated histories that stress the bound. Each
// fill writes observation t into lat; kept says whether the accumulator
// retains it. prunes marks the histories on which the pass must skip lag
// pairs.
var pruneHistories = []struct {
	name   string
	prunes bool
	fill   func(lat *state.Lattice, q, t int, kept bool, rng *dist.Xoshiro)
}{
	// Slow drifts on seven phases (vertices seven apart tie exactly, the
	// others nearly), among iid and sticky vertices.
	{"near-ties", true, func(lat *state.Lattice, q, t int, _ bool, rng *dist.Xoshiro) {
		for v := 0; v < lat.N(); v++ {
			for c := 0; c < lat.Chains(); c++ {
				switch v % 4 {
				case 0:
					lat.Set(v, c, ((t+v%7)/5+c)%q)
				case 1:
					lat.Set(v, c, int(rng.Uint64()%uint64(q)))
				case 2:
					if t%3 == 0 {
						lat.Set(v, c, int(rng.Uint64()%uint64(q)))
					}
				case 3:
					lat.Set(v, c, ((t+v%5)/6+2*c)%q)
				}
			}
		}
	}},
	// Two vertices with identical retained series, the smallest ESS; the
	// higher one's skipped observations disagree across chains, so once
	// the buffer thins it has the worse whole-chain R̂ and is scanned first,
	// but the lower one must be reported. Every other vertex cycles with
	// period 3, which the Geyer loop ends at its first pair.
	{"twins", false, func(lat *state.Lattice, q, t int, kept bool, _ *dist.Xoshiro) {
		for v := 0; v < lat.N(); v++ {
			for c := 0; c < lat.Chains(); c++ {
				switch {
				case v == twinLo || v == twinHi && kept:
					lat.Set(v, c, (t/6+c)%q)
				case v == twinHi:
					lat.Set(v, c, c%q)
				default:
					lat.Set(v, c, (t+c+v)%3)
				}
			}
		}
	}},
	// Vertices frozen apart (ESS 0, whole-chain R̂ +Inf) every fifth vertex
	// from 3, among iid, sticky, drifting and constant ones.
	{"frozen-apart", true, func(lat *state.Lattice, q, t int, _ bool, rng *dist.Xoshiro) {
		for v := 0; v < lat.N(); v++ {
			for c := 0; c < lat.Chains(); c++ {
				switch v % 5 {
				case 0:
					lat.Set(v, c, int(rng.Uint64()%uint64(q)))
				case 1:
					if t%3 == 0 {
						lat.Set(v, c, int(rng.Uint64()%uint64(q)))
					}
				case 2:
					lat.Set(v, c, (t/7+c)%q)
				case 3:
					lat.Set(v, c, c%q)
				case 4:
					lat.Set(v, c, q-1)
				}
			}
		}
	}},
	// Every vertex constant: every ESS is the full pooled count.
	{"capped", false, func(lat *state.Lattice, q, _ int, _ bool, _ *dist.Xoshiro) {
		for v := 0; v < lat.N(); v++ {
			for c := 0; c < lat.Chains(); c++ {
				lat.Set(v, c, v%q)
			}
		}
	}},
}

// TestESSPruneMatchesFullScan holds the bounded pass to the unbounded scan
// after every observation of each pruneHistories history — compact and
// wide cells, odd and even retained lengths, strides 1 to 4 — through
// Check and through a backlog, at GOMAXPROCS 1 to 4. 260 vertices give
// Check's pass one to four workers, each with its own bound; the backlog
// gets as many cores and as many copies of the pass at once, each worker
// scanning a whole pass. The one-core checks must compute fewer lag pairs
// than the unbounded scans wherever the history prunes, and a queued pass,
// whose worker keeps its bound across every vertex, exactly as many as
// the one-core check.
func TestESSPruneMatchesFullScan(t *testing.T) {
	const (
		n = 260
		B = 4
		q = 3
	)
	for _, h := range pruneHistories {
		for _, wide := range []bool{false, true} {
			for _, retain := range []int{8, 32} {
				t.Run(fmt.Sprintf("%s/wide=%v/retain=%d", h.name, wide, retain), func(t *testing.T) {
					restore := func() {}
					if wide {
						restore = state.SetCompactLimitForTest(0)
					}
					lat, err := state.New(n, B, q)
					restore()
					if err != nil {
						t.Fatal(err)
					}
					acc, err := newRhat(latticeOnly{lat}, retain, NewBacklog(0))
					if err != nil {
						t.Fatal(err)
					}
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
					rng := dist.NewXoshiro(int64(retain), 3)
					strides := map[int]bool{}
					parity := map[int]bool{}
					twinFirst := false
					pairs, fullPairs := 0, 0
					for i := 0; i < 2*retain+5; i++ {
						h.fill(lat, q, i, acc.skip == 0, &rng)
						acc.Observe()
						if !acc.SplitReady() {
							continue
						}
						strides[acc.stride], parity[acc.rlen%2] = true, true
						want, full := fullScan(acc)
						fullPairs += full
						for procs := 1; procs <= 4; procs++ {
							runtime.GOMAXPROCS(procs)
							what := fmt.Sprintf("obs %d, GOMAXPROCS %d", i, procs)
							takePairs(acc)
							d, err := acc.Check()
							if err != nil {
								t.Fatal(err)
							}
							samePass(t, what+": Check", d, want)
							checkPairs := takePairs(acc)
							if procs == 1 {
								pairs += checkPairs
							}
							if d.WorstVertex == twinHi && want.ESSVertex == twinLo {
								twinFirst = true
							}
							acc.q.cores = procs
							for range procs {
								if err := acc.Queue(); err != nil {
									t.Fatal(err)
								}
							}
							res := acc.q.Drain()
							if len(res) != procs {
								t.Fatalf("%s: Drain returned %d results for %d queued passes", what, len(res), procs)
							}
							for k, d := range res {
								samePass(t, fmt.Sprintf("%s: queued pass %d", what, k), d, want)
							}
							if queued := takePairs(acc); procs == 1 && queued != checkPairs {
								t.Fatalf("%s: the queued pass computed %d Geyer lag pairs, the one-core check %d", what, queued, checkPairs)
							}
						}
					}
					if len(strides) < 2 || len(parity) < 2 {
						t.Fatalf("strides %v, retained-length parities %v: want thinning and both parities", strides, parity)
					}
					if h.prunes && pairs >= fullPairs {
						t.Fatalf("the checks computed %d Geyer lag pairs, the unbounded scans %d: the bound never pruned", pairs, fullPairs)
					}
					if h.name == "twins" && !twinFirst {
						t.Fatalf("vertex %d never had the worst whole-chain R̂ with vertex %d's ESS the smallest", twinHi, twinLo)
					}
				})
			}
		}
	}
}

// TestESSPruneSkipsLagWork: on the history BenchmarkRhatCheckCorpus times
// (hardcore-tree15-above under metropolis, 16 chains, seed 11, two engine
// workers, 128 observed sweeps — the metropolis stage cap of perfbench's
// corpus-escalate workload), the check computes at most half the Geyer lag
// pairs of the unbounded scan and reports the same fields. The engine's
// worker count is pinned: its default follows GOMAXPROCS, and so would
// the history.
func TestESSPruneSkipsLagWork(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "corpus", "hardcore-tree15-above.json"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := spec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create("metropolis", b.Instance, Options{Chains: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s.(interface{ SetWorkers(int) }).SetWorkers(2)
	m := s.(MultiChain)
	rounds, err := SweepRounds("metropolis", b.Instance)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := NewRhat(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		if err := m.Run(rounds); err != nil {
			t.Fatal(err)
		}
		acc.Observe()
	}
	d, err := acc.Check()
	if err != nil {
		t.Fatal(err)
	}
	pruned := takePairs(acc)
	want, full := fullScan(acc)
	samePass(t, "Check", d, want)
	t.Logf("Geyer lag pairs: %d of the unbounded scan's %d", pruned, full)
	if 2*pruned > full {
		t.Errorf("the check computed %d Geyer lag pairs, the unbounded scan %d: want at most half", pruned, full)
	}
}
