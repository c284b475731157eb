package psample

// shard.go is the in-process execution substrate under the lockstep core
// of the three engines (BatchChromaticGlauber, BatchLubyGlauber,
// BatchLocalMetropolis): a static block partition of work items across a
// bounded worker pool, with a reusable generation barrier between the
// stages of each round. With one worker the stage functions run inline —
// no goroutines, no barriers — so small instances and single-CPU machines
// pay zero synchronization overhead.
//
// The barrier is crossed after every stage, twice per LubyGlauber round,
// so its wait is on the critical path of every multi-worker Run. A waiter
// that parks at once lets its thread sleep on an idle vCPU, and waking it
// is slow: on a 2-vCPU KVM Xeon (Go 1.24) a parked waiter resumed a
// median 74–79 µs after the last arrival released it (90th percentile
// 81–85 µs), against stages of a few hundred µs; a polling waiter resumed
// after 0.6 µs. So a waiter first polls the barrier's generation for a
// little longer than that wake-up (spinBudget), yielding its P every few
// dozen polls so a goroutine queued behind it still runs, and parks only
// when the budget runs out. It polls only when every party can hold a CPU
// at once (workers ≤ min(GOMAXPROCS, NumCPU)); an oversubscribed pool
// parks at once, as a poller would only hold the CPU its peer waits for.

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultWorkers picks the worker count for an instance with total work
// items: one worker per available CPU, but never so many that a worker's
// block drops below minBlock items (barrier crossings would dominate).
func DefaultWorkers(total int) int {
	const minBlock = 64
	w := min(runtime.GOMAXPROCS(0), total/minBlock)
	return max(w, 1)
}

// BlockOf returns worker w's half-open item range under the static
// partition of total items across workers blocks.
func BlockOf(total, workers, w int) (lo, hi int) {
	return total * w / workers, total * (w + 1) / workers
}

// ChainBlock picks the chain-group width of the batched multi-chain
// engines: weight rows for a (vertex, chain group) item stay within a
// few kB of scratch (512 floats) regardless of q, clamped to [16, 256]
// so groups neither thrash the scratch nor degenerate to single chains.
func ChainBlock(q int) int {
	if q < 1 {
		q = 1
	}
	return min(max(512/q, 16), 256)
}

// spinBudget is how long a barrier waiter polls before it parks: just
// above the cost of waking a parked thread on an idle vCPU (the ~80 µs
// measured above), so polling covers every wait shorter than a wake-up,
// and a longer one parks and pays the wake-up as before. spinYield is the
// number of polls between two yields of the waiter's P.
const (
	spinBudget = 100 * time.Microsecond
	spinYield  = 32
)

// barrier is a reusable generation barrier for a fixed party count.
type barrier struct {
	parties int32
	// spin records that the parties fit the machine (parties ≤
	// min(GOMAXPROCS, NumCPU)), so a waiter may poll before it parks.
	spin    bool
	arrived atomic.Int32
	// gen counts the completed crossings; waiters poll it, and the last
	// arrival advances it under mu so a parked waiter cannot miss it.
	gen  atomic.Uint32
	mu   sync.Mutex
	cond sync.Cond
}

func newBarrier(parties int) *barrier {
	b := &barrier{
		parties: int32(parties),
		spin:    parties <= min(runtime.GOMAXPROCS(0), runtime.NumCPU()),
	}
	b.cond.L = &b.mu
	return b
}

// await blocks until all parties have arrived, then releases them
// together: the last arrival advances the generation, and the others
// wait for it, polling for up to spinBudget when the barrier may spin and
// parked on cond after that.
func (b *barrier) await() {
	// A party loads the generation before it arrives: the crossing cannot
	// complete without it, so gen is still the one it waits out.
	gen := b.gen.Load()
	if b.arrived.Add(1) == b.parties {
		b.arrived.Store(0)
		b.mu.Lock()
		b.gen.Add(1)
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	if b.spin && b.poll(gen) {
		return
	}
	b.mu.Lock()
	for b.gen.Load() == gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// poll spins until the generation moves past gen, yielding the P every
// spinYield polls, and reports false once spinBudget has passed first.
func (b *barrier) poll(gen uint32) bool {
	start := time.Now()
	for polls := 1; b.gen.Load() == gen; polls++ {
		if polls%spinYield == 0 {
			if time.Since(start) > spinBudget {
				return false
			}
			runtime.Gosched()
		}
	}
	return true
}

// RunRounds executes rounds iterations of the stage functions on the given
// number of workers. Within a round every worker runs stage 0 on its own
// blocks, crosses a barrier, runs stage 1, and so on — so a stage may read
// anything written by earlier stages of the same round but two workers
// never write the same item (the static partition guarantees it). A stage
// error aborts the work (remaining stages become no-ops on every worker)
// and the first error observed is returned. A stage panic is recovered and
// converted into an error the same way: the panicking worker keeps
// attending the round's barriers so the surviving workers drain instead of
// deadlocking, and the error (with the panic's stack) is returned after
// the pool has stopped.
func RunRounds(workers, rounds int, stages []func(w, round int) error) error {
	if workers <= 1 {
		// The inline path has no barrier to strand, but panics are still
		// converted so the exported contract does not depend on the
		// machine-dependent worker count.
		for r := 0; r < rounds; r++ {
			for _, stage := range stages {
				if err := runStage(stage, 0, r); err != nil {
					return err
				}
			}
		}
		return nil
	}
	bar := newBarrier(workers)
	errs := make([]error, workers)
	// failedRound is the earliest round in which a stage failed (MaxInt64
	// while none has). Workers may only stop at a barrier-aligned point
	// every worker agrees on, and "end of round failedRound" is the unique
	// such point: a failure in round ≤ r is stored before the failing
	// worker attends that round's remaining barriers, so it is visible to
	// every worker by the end of round r, while a failure from round r+1
	// (set by a worker that raced ahead through the last barrier of round
	// r) can never make the predicate failedRound ≤ r true. A plain "stop
	// as soon as a failure is visible" flag has no such agreement — one
	// worker sees it a round earlier than another, leaves the pool, and
	// strands the rest at the barrier.
	const never = int64(math.MaxInt64)
	var failedRound atomic.Int64
	failedRound.Store(never)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for _, stage := range stages {
					if errs[w] == nil && failedRound.Load() == never {
						if err := runStage(stage, w, r); err != nil {
							errs[w] = err
							for {
								cur := failedRound.Load()
								if cur <= int64(r) || failedRound.CompareAndSwap(cur, int64(r)) {
									break
								}
							}
						}
					}
					bar.await()
				}
				if failedRound.Load() <= int64(r) {
					break
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runStage invokes one stage call, converting a panic into an error so the
// worker can keep crossing barriers.
func runStage(stage func(w, round int) error, w, r int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("psample: worker %d: stage panicked in round %d: %v\n%s", w, r, p, debug.Stack())
		}
	}()
	return stage(w, r)
}
