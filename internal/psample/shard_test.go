package psample

// shard_test.go exercises the worker-pool substrate directly: the static
// partition, the barrier ordering guarantees, error propagation, and the
// panic-recovery path (a panicking stage must not strand the surviving
// workers at the barrier).

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestBlockOfCoversAll(t *testing.T) {
	for _, total := range []int{0, 1, 5, 64, 577} {
		for _, workers := range []int{1, 2, 3, 7, 16} {
			prev := 0
			for w := 0; w < workers; w++ {
				lo, hi := BlockOf(total, workers, w)
				if lo != prev {
					t.Fatalf("BlockOf(%d,%d,%d) = [%d,%d): gap after %d", total, workers, w, lo, hi, prev)
				}
				if hi < lo {
					t.Fatalf("BlockOf(%d,%d,%d) = [%d,%d): negative block", total, workers, w, lo, hi)
				}
				prev = hi
			}
			if prev != total {
				t.Fatalf("BlockOf(%d,%d,·) covers %d items", total, workers, prev)
			}
		}
	}
}

// TestRunRoundsStageOrdering checks the barrier contract: across workers,
// stage s+1 of a round never starts before every worker finished stage s,
// and stage 0 of round r+1 never before every worker finished round r. A
// stage checks it on entry by the exact number of finished calls of the
// stage before it, which no worker can move while another is still inside
// the current stage, and that no other stage is running. The cases cross
// the barrier on the spin path where the pool fits the machine, on the
// park path where worker 0 sleeps past spinBudget every 50th round, and
// oversubscribed, with more workers than GOMAXPROCS.
func TestRunRoundsStageOrdering(t *testing.T) {
	const stages, rounds = 3, 500
	for _, tc := range []struct {
		name    string
		workers int
		// procs sets GOMAXPROCS for the case when positive.
		procs int
		slow  bool
	}{
		{name: "workers=2", workers: 2},
		{name: "workers=3", workers: 3},
		{name: "workers=5", workers: 5},
		{name: "workers=2/park", workers: 2, slow: true},
		{name: "workers=3/park", workers: 3, slow: true},
		{name: "workers=5/procs=2", workers: 5, procs: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			}
			var inStage, finished [stages]atomic.Int64
			var bad atomic.Pointer[string]
			fail := func(format string, args ...any) {
				msg := fmt.Sprintf(format, args...)
				bad.CompareAndSwap(nil, &msg)
			}
			fns := make([]func(w, round int) error, stages)
			for s := range fns {
				prev, want := s-1, func(round int) int64 { return int64(tc.workers * (round + 1)) }
				if s == 0 {
					prev, want = stages-1, func(round int) int64 { return int64(tc.workers * round) }
				}
				fns[s] = func(w, round int) error {
					inStage[s].Add(1)
					if got := finished[prev].Load(); got != want(round) {
						fail("round %d: worker %d entered stage %d with %d calls of stage %d finished, want %d", round, w, s, got, prev, want(round))
					}
					for o := range inStage {
						if o != s && inStage[o].Load() != 0 {
							fail("round %d: stage %d ran concurrently with stage %d", round, s, o)
						}
					}
					if tc.slow && s == 0 && w == 0 && round%50 == 0 {
						time.Sleep(2 * spinBudget)
					}
					inStage[s].Add(-1)
					finished[s].Add(1)
					return nil
				}
			}
			if err := RunRounds(tc.workers, rounds, fns); err != nil {
				t.Fatal(err)
			}
			if msg := bad.Load(); msg != nil {
				t.Fatal(*msg)
			}
			for s := range finished {
				if got := finished[s].Load(); got != int64(tc.workers*rounds) {
					t.Errorf("stage %d ran %d times, want %d", s, got, tc.workers*rounds)
				}
			}
		})
	}
}

// TestBarrierSpinGuard pins when a barrier may spin: only when every party
// can hold a CPU at once.
func TestBarrierSpinGuard(t *testing.T) {
	limit := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	for _, parties := range []int{2, 3, 5, limit, limit + 1} {
		if got, want := newBarrier(parties).spin, parties <= limit; got != want {
			t.Errorf("newBarrier(%d).spin = %v at GOMAXPROCS %d on %d CPUs, want %v", parties, got, runtime.GOMAXPROCS(0), runtime.NumCPU(), want)
		}
	}
}

func TestRunRoundsError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 4} {
		ran := atomic.Int32{}
		err := RunRounds(workers, 10, []func(w, round int) error{
			func(w, round int) error {
				ran.Add(1)
				if w == 0 && round == 2 {
					return boom
				}
				return nil
			},
		})
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: err = %v, want boom", workers, err)
		}
	}
}

// TestRunRoundsPanicRecovered is the regression test for the barrier
// deadlock: before the fix, a stage panic killed its worker goroutine
// mid-round and every surviving worker blocked forever at the next
// barrier. The panic must come back as an error carrying the panic value,
// within a bounded time, at two workers (the barrier's spin path wherever
// two CPUs are available) and at four.
func TestRunRoundsPanicRecovered(t *testing.T) {
	for _, workers := range []int{2, 4} {
		done := make(chan error, 1)
		go func() {
			done <- RunRounds(workers, 50, []func(w, round int) error{
				func(w, round int) error { return nil },
				func(w, round int) error {
					if w == workers-1 && round == 3 {
						panic("kaboom")
					}
					return nil
				},
			})
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "kaboom") {
				t.Fatalf("workers=%d: err = %v, want recovered panic mentioning kaboom", workers, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: RunRounds deadlocked after a stage panic", workers)
		}
	}
}

// TestRunRoundsPanicInline checks the 1-worker inline path too: the
// contract (stage panics come back as errors) must not depend on the
// worker count the DefaultWorkers heuristic happens to pick.
func TestRunRoundsPanicInline(t *testing.T) {
	err := RunRounds(1, 1, []func(w, round int) error{
		func(w, round int) error { panic("inline") },
	})
	if err == nil || !strings.Contains(err.Error(), "inline") {
		t.Fatalf("err = %v, want recovered panic mentioning inline", err)
	}
}
