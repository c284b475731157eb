package run

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/sampler"
)

// failingDynamic names a chromatic engine whose Run fails from its
// failingRun-th call on: an engine error in the middle of a stage.
const (
	failingDynamic = "test-fails-mid-stage"
	failingRun     = 12
)

var errEngine = errors.New("engine failed")

type failingEngine struct {
	sampler.MultiChain
	runs int
}

func (f *failingEngine) Run(rounds int) error {
	f.runs++
	if f.runs >= failingRun {
		return errEngine
	}
	return f.MultiChain.Run(rounds)
}

func init() {
	sampler.Register(sampler.Info{
		Name:        failingDynamic,
		Synopsis:    "chromatic, failing mid-stage (run package tests only)",
		SweepRounds: func(*gibbs.Instance) int { return 1 },
		NewBatch: func(in *gibbs.Instance, chains int, seed int64) (sampler.MultiChain, error) {
			s, err := sampler.Create("chromatic", in, sampler.Options{Chains: chains, Seed: seed})
			if err != nil {
				return nil, err
			}
			return &failingEngine{MultiChain: s.(sampler.MultiChain)}, nil
		},
	})
}

// goroutinesBackTo waits, up to a deadline, for runtime.NumGoroutine to
// fall to base and returns the last count. A goroutine's final unlock or
// WaitGroup.Done comes just before it exits, so the count may lag the
// event that ended it by a few scheduler steps.
func goroutinesBackTo(base int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
	}
}

// passFrame is the frame of the pass kernel's scan in a goroutine's
// stack.
var passFrame = []byte("sampler.(*frozen).scanRange(")

// passRunning reports whether some goroutine is inside a split-R̂/ESS
// pass.
func passRunning() bool {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Contains(buf[:n], passFrame)
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestDriveLeavesNoPassOrGoroutine: however a drive returns — converged,
// out of budget, after an escalation, or with an engine error mid-stage —
// no pass or goroutine of its backlog outlives it. At the return no
// goroutine is inside a pass, runtime.NumGoroutine comes back to its count
// before the drive, and every check carries its split-R̂ and ESS fields,
// the same as the drive at GOMAXPROCS 1, where no core is spare and every
// pass runs inline. One engine worker leaves GOMAXPROCS − 1 cores to the
// backlog, so run it at -cpu 1,2,4. The engine error strikes on a 24×24
// torus with a check every sweep, where two dozen queued passes would
// keep a worker busy for milliseconds if the error path left them.
func TestDriveLeavesNoPassOrGoroutine(t *testing.T) {
	in := hardcoreInstance(t, 12, 1.0)
	hot := hardcoreInstance(t, 12, 4.0)
	torus, err := model.Hardcore(graph.Torus(24, 24), 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := gibbs.NewInstance(torus, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		in     *gibbs.Instance
		p      Policy
		reason StopReason
		err    error
	}{
		{"converged", in, Policy{
			Stages: []Stage{{Dynamic: "chromatic"}},
			Chains: 8, CheckEvery: 2, Rhat: 1.1,
		}, Converged, nil},
		{"budget", in, Policy{
			Stages: []Stage{{Dynamic: "luby"}},
			Chains: 4, MaxSweeps: 40, CheckEvery: 2,
		}, Budget, nil},
		{"stage-budget", in, Policy{
			Stages: []Stage{{Dynamic: "chromatic", MaxSweeps: 20}, {Dynamic: "metropolis"}},
			Chains: 8, MaxSweeps: 60, CheckEvery: 2,
		}, Budget, nil},
		{"rate-collapse", hot, Policy{
			Stages: []Stage{{Dynamic: "metropolis", MinRate: 0.999}, {Dynamic: "chromatic"}},
			Chains: 8, MaxSweeps: 512, CheckEvery: 2, Rhat: 1.2,
		}, Converged, nil},
		{"engine-error", big, Policy{
			Stages: []Stage{{Dynamic: "chromatic", MaxSweeps: 20}, {Dynamic: failingDynamic}},
			Chains: 8, MaxSweeps: 60, CheckEvery: 1,
		}, "", errEngine},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p
			p.Workers = 1
			base := runtime.NumGoroutine()
			rep, _, err := Drive(tc.in, 5, p)
			if passRunning() {
				t.Fatal("a split-R̂/ESS pass is still running after the drive returned")
			}
			if n := goroutinesBackTo(base); n > base {
				t.Fatalf("%d goroutines after the drive returned, %d before", n, base)
			}
			if tc.err != nil {
				if !errors.Is(err, tc.err) {
					t.Fatalf("Drive error = %v, want %v", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if rep.Reason != tc.reason {
				t.Fatalf("Reason = %q, want %q", rep.Reason, tc.reason)
			}
			if len(p.Stages) > 1 && len(rep.Stages) != 2 {
				t.Fatalf("ran %d stages, want an escalation to the second", len(rep.Stages))
			}
			checks := 0
			for si, st := range rep.Stages {
				for ci, ck := range st.Checks {
					checks++
					if !(ck.SplitRhat > 0) || ck.SplitVertex < 0 || ck.SplitVertex >= tc.in.N() ||
						ck.ESSVertex < 0 || ck.ESSVertex >= tc.in.N() {
						t.Errorf("stage %d check %d: split-R̂/ESS fields not filled: %+v", si, ci, ck)
					}
				}
			}
			if checks < 4 {
				t.Fatalf("%d checks ran, want several", checks)
			}
			prev := runtime.GOMAXPROCS(1)
			want, _, err := Drive(tc.in, 5, p)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep, want) {
				t.Errorf("report differs from the drive at GOMAXPROCS 1:\n%+v\n%+v", rep, want)
			}
		})
	}
}
