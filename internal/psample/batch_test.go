package psample

// batch_test.go validates the engines end to end: their B = 1 one-worker
// trajectories are pinned symbol for symbol, the pooled output of all B
// chains must match the exact Gibbs distribution for every model builder,
// pinning must hold in every chain, and the forced multi-worker pool must
// stay feasible under the race detector.

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
)

// multiChain abstracts the two engines for the shared harnesses.
type multiChain interface {
	Reset(seed int64) error
	Run(rounds int) error
	State() dist.Config
	Chains() int
	Chain(c int) dist.Config
}

// b1Trajectory is one engine's B = 1 trajectory on one b1GoldenCases
// instance at seed 42 with one worker: chain 0 after each of five Run(9)
// chunks, one digit per vertex, and the final Updates() (LubyGlauber) or
// Accepts() (LocalMetropolis).
type b1Trajectory struct {
	chunks [5]string
	count  int64
}

// The golden B = 1 trajectories were recorded from the former
// single-chain LubyGlauber and LocalMetropolis engines, which the engines
// at B = 1 reproduced bit for bit. A one-chain path that changes a
// symbol, a weight or the RNG consumption order fails them.
var (
	lubyB1Golden = map[string]b1Trajectory{
		"hardcore":            {[5]string{"000101", "000100", "010100", "000100", "100000"}, 88},
		"ising":               {[5]string{"101110", "000010", "010110", "010100", "101000"}, 88},
		"coloring":            {[5]string{"323", "123", "121", "121", "121"}, 60},
		"list-coloring":       {[5]string{"231", "131", "130", "121", "021"}, 60},
		"matching":            {[5]string{"1010", "1001", "0101", "0101", "0000"}, 74},
		"hypergraph-matching": {[5]string{"101", "101", "100", "101", "001"}, 60},
		"hardcore-torus4": {[5]string{"0101000000011000", "0101100000001000", "0000101001011000",
			"0100101001011010", "0101001001000000"}, 133},
		"hardcore-star6": {[5]string{"100000", "000110", "000111", "001010", "010100"}, 123},
	}
	metropolisB1Golden = map[string]b1Trajectory{
		"hardcore":            {[5]string{"100000", "101000", "101010", "010010", "010000"}, 119},
		"ising":               {[5]string{"010101", "111101", "011101", "010101", "010101"}, 63},
		"coloring":            {[5]string{"213", "103", "103", "103", "202"}, 46},
		"list-coloring":       {[5]string{"231", "031", "030", "023", "010"}, 61},
		"matching":            {[5]string{"1010", "0000", "1001", "1001", "0101"}, 83},
		"hypergraph-matching": {[5]string{"010", "001", "010", "101", "000"}, 76},
		"hardcore-torus4": {[5]string{"0000001000000000", "0000001000000001", "0100001001000001",
			"0100101001000001", "0100101001000001"}, 296},
		"hardcore-star6": {[5]string{"010000", "010101", "001011", "011000", "011001"}, 195},
	}
)

// b1GoldenCases is buildTVCases plus two instances whose vertices have
// more free rivals: four on the 4×4 torus (every slot of the padded Luby
// compare) and five at the hub of a six-vertex star (the high-degree
// sweep).
func b1GoldenCases(t *testing.T) []tvCase {
	t.Helper()
	cases := buildTVCases(t)
	torus, err := model.Hardcore(graph.Torus(4, 4), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	star, err := model.Hardcore(graph.Star(6), 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		spec *gibbs.Spec
	}{{"hardcore-torus4", torus}, {"hardcore-star6", star}} {
		in, err := gibbs.NewInstance(c.spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tvCase{name: c.name, in: in})
	}
	return cases
}

// digits renders a configuration of an alphabet of at most ten symbols as
// one digit per vertex.
func digits(c dist.Config) string {
	var b strings.Builder
	for _, x := range c {
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

// checkB1Golden runs the five chunks of a golden trajectory on a B = 1
// one-worker engine and compares chain 0 after each, then the counter.
func checkB1Golden(t *testing.T, s multiChain, want b1Trajectory, count func() int64) {
	t.Helper()
	for chunk, w := range want.chunks {
		if err := s.Run(9); err != nil {
			t.Fatal(err)
		}
		if got := digits(s.State()); got != w {
			t.Fatalf("chunk %d: chain 0 = %s, want %s", chunk, got, w)
		}
	}
	if got := count(); got != want.count {
		t.Errorf("counter = %d, want %d", got, want.count)
	}
}

// TestBatchLubyGlauberMatchesSingleChain pins the LubyGlauber engine at
// B = 1 with one worker to the golden single-chain trajectories, chunk by
// chunk. The seed policy that makes this exact: per-worker streams are
// dist.NewXoshiro(seed, worker), stage 1 draws one raw word per free
// vertex in increasing order, and stage 2 heat-baths the winners in
// increasing vertex order with one uniform each against bit-identical
// conditional weights.
func TestBatchLubyGlauberMatchesSingleChain(t *testing.T) {
	for _, c := range b1GoldenCases(t) {
		t.Run(c.name, func(t *testing.T) {
			want, ok := lubyB1Golden[c.name]
			if !ok {
				t.Fatalf("no golden trajectory for %q", c.name)
			}
			r, err := RulesOf(c.in)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewBatchLubyGlauber(r, 1, 42)
			if err != nil {
				t.Fatal(err)
			}
			s.SetWorkers(1)
			checkB1Golden(t, s, want, s.Updates)
		})
	}
}

// TestBatchLocalMetropolisMatchesSingleChain is the LocalMetropolis
// golden B = 1 test: one proposal draw per free vertex in increasing
// order, then one filter coin per acceptance factor in factor order, and a
// deterministic adoption stage.
func TestBatchLocalMetropolisMatchesSingleChain(t *testing.T) {
	for _, c := range b1GoldenCases(t) {
		t.Run(c.name, func(t *testing.T) {
			want, ok := metropolisB1Golden[c.name]
			if !ok {
				t.Fatalf("no golden trajectory for %q", c.name)
			}
			r, err := RulesOf(c.in)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewBatchLocalMetropolis(r, 1, 42)
			if err != nil {
				t.Fatal(err)
			}
			s.SetWorkers(1)
			checkB1Golden(t, s, want, s.Accepts)
		})
	}
}

// checkTVMulti is the multi-chain TV harness: every trial contributes all
// B final chain states (the chains consume disjoint draws of the worker
// streams, so they are independent samples), and the noise envelope is
// sized to the pooled observation count.
func checkTVMulti(t *testing.T, in *gibbs.Instance, s multiChain, rounds, trials int) {
	t.Helper()
	truth, err := exact.JointDistribution(in)
	if err != nil {
		t.Fatal(err)
	}
	emp := dist.NewEmpirical(in.N())
	for i := 0; i < trials; i++ {
		if err := s.Reset(int64(1000 + i)); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(rounds); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < s.Chains(); c++ {
			emp.Observe(s.Chain(c))
		}
	}
	got, err := emp.Joint()
	if err != nil {
		t.Fatal(err)
	}
	tv, err := dist.TVJoint(truth, got)
	if err != nil {
		t.Fatal(err)
	}
	n := trials * s.Chains()
	tol := 2.5 * dist.ExpectedTVNoise(truth.Len(), n)
	if tv > tol {
		t.Errorf("TV vs exact = %v > envelope %v (support %d, observations %d)", tv, tol, truth.Len(), n)
	}
}

// TestBatchLubyGlauberMatchesExact pins the pooled B = 16 output of the
// batched LubyGlauber engine to the brute-force referee for every model
// builder (hypergraph matching drives the general, non-pairwise subset
// kernel path).
func TestBatchLubyGlauberMatchesExact(t *testing.T) {
	const chains = 16
	for _, c := range buildTVCases(t) {
		t.Run(c.name, func(t *testing.T) {
			r, err := RulesOf(c.in)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewBatchLubyGlauber(r, chains, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkTVMulti(t, c.in, s, c.rounds, c.trials/chains)
			if s.Updates() == 0 {
				t.Error("no heat-bath updates recorded")
			}
		})
	}
}

// TestBatchLocalMetropolisMatchesExact pins the pooled B = 16 output of
// the batched LocalMetropolis engine to the brute-force referee for every
// model builder (the arity-3 hypergraph-matching factors drive the
// batched filter's mask walk beyond the pairwise case).
func TestBatchLocalMetropolisMatchesExact(t *testing.T) {
	const chains = 16
	for _, c := range buildTVCases(t) {
		t.Run(c.name, func(t *testing.T) {
			r, err := RulesOf(c.in)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewBatchLocalMetropolis(r, chains, 1)
			if err != nil {
				t.Fatal(err)
			}
			// Same longer schedule as at B = 1: per-round acceptance
			// losses.
			checkTVMulti(t, c.in, s, 2*c.rounds, c.trials/chains)
			if s.Accepts() == 0 {
				t.Error("no accepted proposals recorded")
			}
		})
	}
}

// TestBatchRespectsPinning checks that pinned vertices never move in any
// chain of either batched engine.
func TestBatchRespectsPinning(t *testing.T) {
	spec, err := model.Hardcore(graph.Path(6), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pin := dist.Config{model.In, dist.Unset, dist.Unset, dist.Unset, dist.Unset, model.Out}
	in, err := gibbs.NewInstance(spec, pin)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RulesOf(in)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewBatchLubyGlauber(r, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := NewBatchLocalMetropolis(r, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []multiChain{lg, lm} {
		if err := s.Run(60); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < s.Chains(); c++ {
			cfg := s.Chain(c)
			if cfg[0] != model.In || cfg[5] != model.Out {
				t.Errorf("chain %d pinning violated: %v", c, cfg)
			}
			w, err := spec.Weight(cfg)
			if err != nil || w <= 0 {
				t.Errorf("chain %d infeasible state %v (w=%v err=%v)", c, cfg, w, err)
			}
		}
	}
}

// TestBatchMultiWorker exercises the chain-block-affine worker partition
// (barriers, groups-outermost item grid, per-worker RNG streams) of both
// batched engines on a larger instance at B = 32 with a forced pool, and
// checks every chain stays feasible throughout. The race-detector CI job
// makes this a synchronization test as much as a correctness one.
func TestBatchMultiWorker(t *testing.T) {
	g := graph.Torus(8, 8)
	spec, err := model.Hardcore(g, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RulesOf(in)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewBatchLubyGlauber(r, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	lg.SetWorkers(4)
	lm, err := NewBatchLocalMetropolis(r, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	lm.SetWorkers(4)
	for _, s := range []multiChain{lg, lm} {
		for i := 0; i < 6; i++ {
			if err := s.Run(5); err != nil {
				t.Fatal(err)
			}
			for c := 0; c < s.Chains(); c++ {
				cfg := s.Chain(c)
				w, err := spec.Weight(cfg)
				if err != nil || w <= 0 {
					t.Fatalf("chain %d infeasible after %d rounds (w=%v err=%v)", c, (i+1)*5, w, err)
				}
			}
		}
	}
}

// TestBatchForcedWorkersSmall forces a multi-worker pool on an instance so
// small that DefaultWorkers would collapse it to the inline 1-worker path,
// at B = 1 (one-chain rows split across workers) and B = 3, so the
// barrier and block-partition code runs under the race detector even for
// tiny cases. Correctness is checked by feasibility and pinning
// invariants in every chain after every batch.
func TestBatchForcedWorkersSmall(t *testing.T) {
	spec, err := model.Hardcore(graph.Cycle(7), 1.1)
	if err != nil {
		t.Fatal(err)
	}
	pin := dist.NewConfig(7)
	pin[3] = model.Out
	in, err := gibbs.NewInstance(spec, pin)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RulesOf(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, chains := range []int{1, 3} {
		for _, workers := range []int{2, 3, 5} {
			lg, err := NewBatchLubyGlauber(r, chains, 42)
			if err != nil {
				t.Fatal(err)
			}
			lg.SetWorkers(workers)
			lm, err := NewBatchLocalMetropolis(r, chains, 42)
			if err != nil {
				t.Fatal(err)
			}
			lm.SetWorkers(workers)
			for _, s := range []multiChain{lg, lm} {
				for batch := 0; batch < 8; batch++ {
					if err := s.Run(10); err != nil {
						t.Fatal(err)
					}
					for c := 0; c < s.Chains(); c++ {
						cfg := s.Chain(c)
						if cfg[3] != model.Out {
							t.Fatalf("B=%d workers=%d chain %d: pinning violated: %v", chains, workers, c, cfg)
						}
						w, err := spec.Weight(cfg)
						if err != nil || w <= 0 {
							t.Fatalf("B=%d workers=%d chain %d: infeasible state %v (w=%v err=%v)", chains, workers, c, cfg, w, err)
						}
					}
				}
			}
		}
	}
}

// TestBatchEnginesFullyPinned checks that a fully pinned instance is a
// no-op round for both batched engines (the empty free list short-circuits
// before any kernel runs).
func TestBatchEnginesFullyPinned(t *testing.T) {
	spec, err := model.Hardcore(graph.Path(2), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pin := dist.Config{model.Out, model.In}
	in, err := gibbs.NewInstance(spec, pin)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RulesOf(in)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewBatchLubyGlauber(r, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	lm, err := NewBatchLocalMetropolis(r, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []multiChain{lg, lm} {
		if err := s.Run(10); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < s.Chains(); c++ {
			cfg := s.Chain(c)
			if cfg[0] != model.Out || cfg[1] != model.In {
				t.Errorf("chain %d moved on a fully pinned instance: %v", c, cfg)
			}
		}
	}
	if lg.Rounds() != 10 || lm.Rounds() != 10 {
		t.Errorf("rounds not counted: luby %d, metropolis %d", lg.Rounds(), lm.Rounds())
	}
}

// TestRunAllocatesNothing: the lockstep core binds an engine's stages at
// the first Run since Reset, so once that Run has bound them (and sized
// the worker slots), a one-worker Run, whose stages run inline with no
// pool, allocates nothing. A Reset drops the binding, and the first Run
// after it binds again.
func TestRunAllocatesNothing(t *testing.T) {
	spec, err := model.Ising(graph.Torus(8, 8), 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RulesOf(in)
	if err != nil {
		t.Fatal(err)
	}
	chromatic, err := NewBatchChromaticGlauber(r, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	luby, err := NewBatchLubyGlauber(r, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	metropolis, err := NewBatchLocalMetropolis(r, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]interface {
		multiChain
		SetWorkers(int)
	}{"chromatic": chromatic, "luby": luby, "metropolis": metropolis}
	for name, s := range engines {
		s.SetWorkers(1)
		for _, phase := range []string{"first", "after Reset"} {
			if phase != "first" {
				if err := s.Reset(6); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Run(1); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(20, func() { err = s.Run(1) }); n != 0 {
				t.Errorf("%s, %s binding: Run(1) allocates %v times per call at one worker, want 0", name, phase, n)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSlotsOwnWholeLines: each worker's slot spans whole 64-byte cache
// lines and starts on a line boundary, so no two workers of a 2- or
// 3-worker pool write the same line, on each engine over the lockstep
// core.
func TestSlotsOwnWholeLines(t *testing.T) {
	const line = 64
	if size := unsafe.Sizeof(slot{}); size%line != 0 {
		t.Errorf("slot is %d bytes, not a whole number of %d-byte lines", size, line)
	}
	spec, err := model.Coloring(graph.Torus(8, 8), 10)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RulesOf(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3} {
		chromatic, err := NewBatchChromaticGlauber(r, 16, 5)
		if err != nil {
			t.Fatal(err)
		}
		luby, err := NewBatchLubyGlauber(r, 16, 5)
		if err != nil {
			t.Fatal(err)
		}
		metropolis, err := NewBatchLocalMetropolis(r, 16, 5)
		if err != nil {
			t.Fatal(err)
		}
		for name, e := range map[string]struct {
			run  func(int) error
			core *lockstep
		}{
			"chromatic":  {chromatic.Run, &chromatic.lockstep},
			"luby":       {luby.Run, &luby.lockstep},
			"metropolis": {metropolis.Run, &metropolis.lockstep},
		} {
			e.core.SetWorkers(workers)
			if err := e.run(1); err != nil {
				t.Fatal(err)
			}
			if len(e.core.slots) != workers {
				t.Fatalf("%s: %d slots at %d workers", name, len(e.core.slots), workers)
			}
			for i := range e.core.slots {
				if a := uintptr(unsafe.Pointer(&e.core.slots[i])); a%line != 0 {
					t.Errorf("%s, %d workers: slot %d starts %d bytes into a %d-byte line", name, workers, i, a%line, line)
				}
			}
		}
	}
}

// TestBatchEnginesShareInstanceRules: every engine built on one instance —
// of each dynamic, from eight goroutines at once on a fresh instance —
// holds the instance's one Rules value (RulesOf), and with it one
// canonical start and one class schedule. Sharing changes no trajectory:
// each engine's chains after a few rounds match those of the same engine
// built alone on a second instance of the same spec and pinning, whose
// Rules value is its own.
func TestBatchEnginesShareInstanceRules(t *testing.T) {
	spec, err := model.Hardcore(graph.Torus(6, 6), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	pin := dist.NewConfig(spec.N())
	pin[0], pin[7] = model.In, model.Out
	fresh := func() *gibbs.Instance {
		in, err := gibbs.NewInstance(spec, pin)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	type engine interface {
		multiChain
		SetWorkers(int)
	}
	// build returns the three engines on the instance at the given seed,
	// each advanced by three rounds on two workers, with the Rules each
	// holds.
	build := func(in *gibbs.Instance, seed int64) ([]engine, []*Rules, error) {
		r, err := RulesOf(in)
		if err != nil {
			return nil, nil, err
		}
		lg, err := NewBatchLubyGlauber(r, 5, seed)
		if err != nil {
			return nil, nil, err
		}
		lm, err := NewBatchLocalMetropolis(r, 5, seed)
		if err != nil {
			return nil, nil, err
		}
		cg, err := NewBatchChromaticGlauber(r, 5, seed)
		if err != nil {
			return nil, nil, err
		}
		engines := []engine{lg, lm, cg}
		for _, e := range engines {
			e.SetWorkers(2)
			if err := e.Run(3); err != nil {
				return nil, nil, err
			}
		}
		return engines, []*Rules{lg.rules, lm.rules, cg.rules}, nil
	}
	chains := func(e engine) string {
		var sb strings.Builder
		for c := 0; c < e.Chains(); c++ {
			fmt.Fprint(&sb, e.Chain(c))
		}
		return sb.String()
	}
	shared := fresh()
	const goroutines = 8
	engines := make([][]engine, goroutines)
	held := make([][]*Rules, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			engines[g], held[g], errs[g] = build(shared, int64(g))
		}()
	}
	wg.Wait()
	want, err := RulesOf(shared)
	if err != nil {
		t.Fatal(err)
	}
	start, err := want.canonical()
	if err != nil {
		t.Fatal(err)
	}
	for g := range goroutines {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i, r := range held[g] {
			if r != want {
				t.Errorf("goroutine %d, engine %d holds its own Rules, not the instance's", g, i)
			}
		}
		if s, err := held[g][0].canonical(); s != start || err != nil {
			t.Errorf("goroutine %d: the canonical start is not the instance's one lattice", g)
		}
		if cl := engines[g][2].(*BatchChromaticGlauber).Classes(); &cl[0][0] != &want.ClassSchedule()[0][0] {
			t.Errorf("goroutine %d: the chromatic engine does not hold the instance's class schedule", g)
		}
		alone := fresh()
		solo, soloRules, err := build(alone, int64(g))
		if err != nil {
			t.Fatal(err)
		}
		if soloRules[0] == want {
			t.Fatal("a second instance of the same spec shares the first one's Rules")
		}
		for i := range solo {
			if got, want := chains(engines[g][i]), chains(solo[i]); got != want {
				t.Errorf("goroutine %d, engine %d: chains on the shared instance %s, alone %s", g, i, got, want)
			}
		}
	}
}
