package main

// probe.go: the measurements besides the requests themselves — set-up
// time and retained heap, the RunRounds scheduling probe and the
// worker-scaling probe — and the clock and memory readings they share.

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/gibbs"
	"repro/internal/psample"
	"repro/internal/sampler"
)

// heapSetups is the number of set-ups whose retained heap is measured;
// engine_heap_mb is their median.
const heapSetups = 5

var clockEpoch = time.Now()

// nowNanos reads the monotonic clock.
func nowNanos() int64 { return int64(time.Since(clockEpoch)) }

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes returns the cumulative bytes allocated on the heap, cheaply:
// runtime/metrics does not stop the world, but counts small objects a
// whole span at a time, so it is exact only for large allocations (the R̂
// accumulator's buffers).
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// totalAlloc returns the cumulative bytes allocated on the heap, exactly:
// ReadMemStats stops the world and flushes the per-P caches, so call it
// outside timed regions.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// liveHeap collects garbage and returns the bytes still live on the heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setupHeap measures the live heap one fresh set-up of the workload
// holds: heapSetups set-ups, each between two collections, with its
// engines kept alive until the second. It also sums CondStats over the
// workload's documents.
func setupHeap(w *workload) (heapMB []float64, cond gibbs.CondStats, err error) {
	for i := 0; i < heapSetups; i++ {
		h0 := liveHeap()
		engines, err := w.setupOnce(nil)
		if err != nil {
			return nil, cond, err
		}
		h1 := liveHeap()
		heapMB = append(heapMB, (float64(h1)-float64(h0))/1e6)
		runtime.KeepAlive(engines)
	}
	for _, d := range w.docs {
		in, err := loadDoc(nil, d.data)
		if err != nil {
			return nil, cond, err
		}
		cs := in.Spec.Compiled().CondStats()
		cond.Cached += cs.Cached
		cond.Total += cs.Total
		cond.Bytes += cs.Bytes
	}
	return heapMB, cond, nil
}

// timedSetup times one fresh set-up of the workload; a non-nil tracer
// records it as request id. Untimed collections before and after keep the
// set-up and the requests around it from paying for each other's garbage.
func timedSetup(w *workload, tr *tracer, id int) (float64, error) {
	runtime.GC()
	tr.request(id)
	t0 := nowNanos()
	root := tr.begin("setup")
	engines, err := w.setupOnce(tr)
	if err != nil {
		tr.abandon()
		return 0, err
	}
	tr.end(root)
	t1 := nowNanos()
	runtime.KeepAlive(engines)
	runtime.GC()
	return float64(t1-t0) / 1e9, nil
}

// probeReps is how many times each probe repeats its timing; the probes
// report medians.
const probeReps = 5

// probeSeconds is the least wall-clock time one probe timing covers.
const probeSeconds = 0.02

// schedPerStage times psample.RunRounds on no-op stages at the given
// worker count: the scheduling cost of one barrier-separated stage with no
// work in it. perRound is the number of stages per round.
func schedPerStage(workers, perRound int) (float64, error) {
	perRound = max(perRound, 1)
	stages := make([]func(w, round int) error, perRound)
	for i := range stages {
		stages[i] = func(w, round int) error { return nil }
	}
	timeRounds := func(rounds int) (float64, error) {
		t0 := nowNanos()
		err := psample.RunRounds(workers, rounds, stages)
		return float64(nowNanos()-t0) / 1e9, err
	}
	rounds, err := calibrate(timeRounds)
	if err != nil {
		return 0, err
	}
	var per []float64
	for i := 0; i < probeReps; i++ {
		s, err := timeRounds(rounds)
		if err != nil {
			return 0, err
		}
		per = append(per, s/float64(rounds*perRound))
	}
	return median(per), nil
}

// scalingEff runs the dynamic's engine on the instance at one worker and at
// two and returns (time per sweep at 1 worker) ÷ (2 × time per sweep at 2
// workers): 1 is perfect scaling, ½ means the second worker bought
// nothing.
func scalingEff(in *gibbs.Instance, dynamic string) (float64, error) {
	s, err := sampler.Create(dynamic, in, sampler.Options{Chains: chains, Seed: 1})
	if err != nil {
		return 0, err
	}
	m, ok := s.(workered)
	if !ok {
		return 0, fmt.Errorf("dynamic %q has no worker setting", dynamic)
	}
	sweepRounds, err := sampler.SweepRounds(dynamic, in)
	if err != nil {
		return 0, err
	}
	timeSweeps := func(workers int) func(int) (float64, error) {
		return func(sweeps int) (float64, error) {
			m.SetWorkers(workers)
			t0 := nowNanos()
			err := s.Run(sweeps * sweepRounds)
			return float64(nowNanos()-t0) / 1e9, err
		}
	}
	sweeps, err := calibrate(timeSweeps(1))
	if err != nil {
		return 0, err
	}
	var one, two []float64
	for i := 0; i < probeReps; i++ {
		for _, w := range []int{1, 2} {
			t, err := timeSweeps(w)(sweeps)
			if err != nil {
				return 0, err
			}
			if w == 1 {
				one = append(one, t)
			} else {
				two = append(two, t)
			}
		}
	}
	return median(one) / (2 * median(two)), nil
}

// calibrate doubles the work count until one timing covers probeSeconds
// and returns that count.
func calibrate(timeIt func(n int) (float64, error)) (int, error) {
	n := 1
	for {
		s, err := timeIt(n)
		if err != nil {
			return 0, err
		}
		if s >= probeSeconds || n >= 1<<24 {
			return n, nil
		}
		n *= 2
	}
}
