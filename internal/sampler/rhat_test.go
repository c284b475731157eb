package sampler

// rhat_test.go: the Gelman–Rubin accumulator against hand-computed values
// and against its qualitative contract — near 1 on well-mixed chains,
// large when chains are frozen apart.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/psample"
)

func rhatBatch(t *testing.T, spec *gibbs.Spec, pin dist.Config, B int, seed int64) *psample.BatchChromaticGlauber {
	t.Helper()
	in, err := gibbs.NewInstance(spec, pin)
	if err != nil {
		t.Fatal(err)
	}
	r, err := psample.NewRules(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := psample.NewBatchChromaticGlauber(r, B, seed)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFoldAnyOrder holds the pass's fold to the sequential scan's result
// when the vertices are shared among workers in any way: each worker folds
// the vertices it claimed in increasing order, and the workers' results
// fold in any order. The values come from a small pool with exact ties,
// NaN and ±Inf, so the lowest vertex must win every tie, NaN must never
// win, and a vertex as bad as the empty result's ±Inf must never replace
// it.
func TestFoldAnyOrder(t *testing.T) {
	pool := []float64{math.NaN(), math.Inf(-1), math.Inf(1), 0, 1, 1.5, 1.5, 2, 7}
	rng := dist.NewXoshiro(5, 0)
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.IntN(12)
		stats := make([]Diagnostics, n)
		want := noPass
		for v := range stats {
			stats[v] = Diagnostics{
				SplitRhat: pool[rng.IntN(len(pool))], SplitVertex: v,
				ESS: pool[rng.IntN(len(pool))], ESSVertex: v,
			}
			// The sequential scan: strictly worse wins, in vertex order.
			if stats[v].SplitRhat > want.SplitRhat {
				want.SplitRhat, want.SplitVertex = stats[v].SplitRhat, v
			}
			if stats[v].ESS < want.ESS {
				want.ESS, want.ESSVertex = stats[v].ESS, v
			}
		}
		workers := make([]Diagnostics, 1+rng.IntN(4))
		for w := range workers {
			workers[w] = noPass
		}
		for v := range stats {
			workers[rng.IntN(len(workers))].fold(stats[v])
		}
		// The workers' results fold in a random order.
		for i := len(workers) - 1; i > 0; i-- {
			j := rng.IntN(i + 1)
			workers[i], workers[j] = workers[j], workers[i]
		}
		got := noPass
		for _, w := range workers {
			got.fold(w)
		}
		if math.Float64bits(got.SplitRhat) != math.Float64bits(want.SplitRhat) || got.SplitVertex != want.SplitVertex ||
			math.Float64bits(got.ESS) != math.Float64bits(want.ESS) || got.ESSVertex != want.ESSVertex {
			t.Fatalf("trial %d: %d vertices over %d workers: fold gave %+v, sequential scan %+v", trial, n, len(workers), got, want)
		}
	}
}

// TestRhatHandComputed pins the statistic on a fabricated two-chain
// two-observation history by writing the lattice directly.
func TestRhatHandComputed(t *testing.T) {
	spec, err := model.Coloring(graph.Path(2), 5)
	if err != nil {
		t.Fatal(err)
	}
	b := rhatBatch(t, spec, nil, 2, 1)
	acc, err := NewRhat(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc.At(0); err == nil {
		t.Error("At with <2 observations accepted")
	}
	// Vertex 0 history: chain 0 sees 0,2 (mean 1, var 2); chain 1 sees
	// 4,2 (mean 3, var 2). W=2, B=T·var(means)=2·2=4 → wait: var of
	// {1,3} with m−1=1 denominator is 2, times T=2 gives 4. varPlus =
	// (1/2)·2 + 4/2 = 3; R̂ = sqrt(3/2).
	lat := b.Lattice()
	lat.Set(0, 0, 0)
	lat.Set(0, 1, 4)
	lat.Set(1, 0, 1)
	lat.Set(1, 1, 1)
	acc.Observe()
	lat.Set(0, 0, 2)
	lat.Set(0, 1, 2)
	acc.Observe()
	got, err := acc.At(0)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(1.5)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("R̂(0) = %v, want %v", got, want)
	}
	// Vertex 1 never moved in any chain: exactly 1.
	if got, err := acc.At(1); err != nil || got != 1 {
		t.Errorf("R̂(frozen vertex) = %v, %v; want 1", got, err)
	}
	v, worst, err := acc.Worst()
	if err != nil || v != 0 || worst != got0(t, acc) {
		t.Errorf("Worst() = %d, %v, %v; want vertex 0", v, worst, err)
	}
}

func got0(t *testing.T, acc *Rhat) float64 {
	t.Helper()
	x, err := acc.At(0)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// TestRhatConvergedNearOne runs a well-mixing instance long enough that
// every vertex's R̂ lands near 1.
func TestRhatConvergedNearOne(t *testing.T) {
	spec, err := model.Ising(graph.Cycle(10), 1.0, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	b := rhatBatch(t, spec, nil, 8, 3)
	acc, err := NewRhat(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := b.Run(1); err != nil {
			t.Fatal(err)
		}
		acc.Observe()
	}
	_, worst, err := acc.Worst()
	if err != nil {
		t.Fatal(err)
	}
	if worst > 1.2 || worst < 1 {
		t.Errorf("worst R̂ after 200 sweeps of a fast-mixing chain = %v, want ≈ 1", worst)
	}
}

// TestRhatFrozenChainsDiverge fabricates chains frozen at different values
// — the diagnostic must blow up, not average it away.
func TestRhatFrozenChainsDiverge(t *testing.T) {
	spec, err := model.Coloring(graph.Path(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	b := rhatBatch(t, spec, nil, 2, 1)
	acc, err := NewRhat(b)
	if err != nil {
		t.Fatal(err)
	}
	lat := b.Lattice()
	for i := 0; i < 5; i++ {
		lat.Set(0, 0, 0)
		lat.Set(0, 1, 2)
		acc.Observe()
	}
	got, err := acc.At(0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(got, 1) {
		t.Errorf("R̂ of frozen disagreeing chains = %v, want +Inf", got)
	}
}

func TestRhatNeedsTwoChains(t *testing.T) {
	spec, err := model.Coloring(graph.Path(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	b := rhatBatch(t, spec, nil, 1, 1)
	if _, err := NewRhat(b); err == nil {
		t.Error("single-chain R̂ accepted")
	}
}

// TestRhatPinnedVertexIsOne checks the pinned-vertex convention through a
// real run.
func TestRhatPinnedVertexIsOne(t *testing.T) {
	spec, err := model.Hardcore(graph.Cycle(6), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	pin := dist.NewConfig(6)
	pin[3] = model.Out
	b := rhatBatch(t, spec, pin, 4, 7)
	acc, err := NewRhat(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := b.Run(1); err != nil {
			t.Fatal(err)
		}
		acc.Observe()
	}
	if got, err := acc.At(3); err != nil || got != 1 {
		t.Errorf("R̂(pinned vertex) = %v, %v; want exactly 1", got, err)
	}
	if acc.Count() != 20 {
		t.Errorf("Count() = %d, want 20", acc.Count())
	}
}

// totalAlloc returns the bytes f allocates (the runtime's cumulative
// TotalAlloc across the call).
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocsPerRun returns the heap allocations per call of f over runs
// calls, truncated to an integer as testing.AllocsPerRun does. Unlike
// AllocsPerRun it keeps the caller's GOMAXPROCS, so it sees a check's
// worker goroutines. The mean absorbs what the runtime allocates for its
// own bookkeeping while those goroutines run: a new OS thread when a busy
// machine leaves no idle one, or a wait record after a GC emptied its
// shared cache of them.
func allocsPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// stockGoroutines starts n goroutines that all block at once, then lets
// them exit. Starting a goroutine reuses a dead goroutine's descriptor
// (and blocking one a wait record) from the runtime's per-P and global
// free lists, and allocates only when both are empty; the per-P lists
// hold under 64 descriptors and 128 records each, so n well above
// GOMAXPROCS·128 leaves the global lists stocked. A long-running process
// reaches that state by itself; a test must force it before it can see
// that a check on several goroutines allocates nothing of its own.
func stockGoroutines(n int) {
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(n)
	for range n {
		go func() {
			defer wg.Done()
			<-release
		}()
	}
	close(release)
	wg.Wait()
}

// TestRhatAllocations pins what the accumulator allocates on the 64×64
// antiferromagnetic Ising torus with 16 chains: NewRhat only the running
// moments (the snapshot buffer grows with the observations, one byte per
// cell each, doubling, so its allocations stay under twice the full
// buffer), a check nothing once its workers' scratch is sized — at
// GOMAXPROCS 1 (the caller alone) and 4 (the caller and three goroutines)
// — nor a background pass's launch and join once its workers exist, and
// Observe nothing once the buffer has filled and thinned.
func TestRhatAllocations(t *testing.T) {
	spec, err := model.Ising(graph.Torus(64, 64), 0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	const B = 16
	b := rhatBatch(t, spec, nil, B, 1)
	cells := uint64(b.Lattice().N() * B)
	var acc *Rhat
	if got := totalAlloc(func() { acc, err = NewRhat(b) }); got >= 2_000_000 {
		t.Errorf("NewRhat allocated %d bytes, want < 2 MB", got)
	}
	if err != nil {
		t.Fatal(err)
	}
	var observed uint64
	for i := 0; i < 24; i++ {
		if err := b.Run(1); err != nil {
			t.Fatal(err)
		}
		observed += totalAlloc(acc.Observe)
	}
	// One warm-up check sizes the workers' scratch; the next allocate
	// nothing, on one worker or on four.
	var procs int
	checks := map[string]func(){
		"Check":      func() { _, err = acc.Check() },
		"Worst":      func() { _, _, err = acc.Worst() },
		"WorstSplit": func() { _, _, err = acc.WorstSplit() },
		"MinESS":     func() { _, _, err = acc.MinESS() },
		"Launch+Join": func() {
			p := acc.Launch(procs)
			if p == nil {
				err = fmt.Errorf("Launch(%d) started no pass", procs)
				return
			}
			p.Join()
		},
	}
	for _, procs = range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		stockGoroutines(1024)
		for name, check := range checks {
			check()
			if err != nil {
				t.Fatalf("GOMAXPROCS %d: %s: %v", procs, name, err)
			}
		}
		for name, check := range checks {
			if n := allocsPerRun(10, check); n != 0 {
				t.Errorf("GOMAXPROCS %d: %s allocates %d times per call after a warm-up check, want 0", procs, name, n)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	for acc.Count() < DefaultRetain {
		observed += totalAlloc(acc.Observe)
	}
	if rlen, stride := acc.Retained(); stride != 2 || rlen != DefaultRetain/2 {
		t.Fatalf("Retained() = %d, %d after %d observations; want the first thinning", rlen, stride, acc.Count())
	}
	if limit := 2 * DefaultRetain * cells; observed >= limit {
		t.Errorf("Observe allocated %d bytes over %d observations, want < %d (twice the full buffer)", observed, acc.Count(), limit)
	}
	if n := testing.AllocsPerRun(10, acc.Observe); n != 0 {
		t.Errorf("Observe allocates %v times per call past the first thinning, want 0", n)
	}
}
