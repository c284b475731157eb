package repro_test

// drive_digest_test.go: the driver's output pinned value for value. The
// determinism tests compare a binary with itself, so a change that moved
// every Report the same way on every run would pass them; this test holds
// run.Drive to digests recorded once, so a changed value, vertex, stop
// decision or final lattice fails it. The policies cover where a check's
// split-R̂/ESS pass can run: one worker and no ESS floor (the pass may run
// beside the engine; the chromatic drives run past the 256-observation
// buffer, so it thins while a pass is in flight) and an ESS floor at two
// workers (the pass runs before each decision).

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/run"
	"repro/internal/sampler"
)

// driveDigest hashes everything a drive returns: each stage's dynamic,
// consumption and stop reason, the bits of every field of every check, the
// final diagnostics, and every chain of the final lattice.
func driveDigest(rep *run.Report, m sampler.MultiChain) string {
	h := sha256.New()
	var buf [8]byte
	num := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	bits := func(x float64) { num(int64(math.Float64bits(x))) }
	str := func(s string) {
		num(int64(len(s)))
		h.Write([]byte(s))
	}
	for _, st := range rep.Stages {
		str(st.Dynamic)
		num(int64(st.SweepRounds))
		num(int64(st.Sweeps))
		num(int64(st.Rounds))
		str(string(st.Reason))
		num(int64(len(st.Checks)))
		for _, ck := range st.Checks {
			num(int64(ck.Sweep))
			num(int64(ck.Rounds))
			bits(ck.Rhat)
			num(int64(ck.WorstVertex))
			bits(ck.SplitRhat)
			num(int64(ck.SplitVertex))
			bits(ck.ESS)
			num(int64(ck.ESSVertex))
			bits(ck.Rate)
		}
	}
	str(rep.Dynamic)
	num(int64(rep.Sweeps))
	str(string(rep.Reason))
	bits(rep.Rhat)
	num(int64(rep.WorstVertex))
	bits(rep.SplitRhat)
	num(int64(rep.SplitVertex))
	bits(rep.ESS)
	num(int64(rep.ESSVertex))
	for c := 0; c < m.Chains(); c++ {
		for _, x := range m.Chain(c) {
			num(int64(x))
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// driveDigests are the digests of TestDriveDigestGolden's drives, keyed
// document/policy/seed.
var driveDigests = map[string]string{
	"coloring-grid3-qeqdelta/chromatic/11": "06d94c5eafe1a584",
	"coloring-grid3-qeqdelta/chromatic/3":  "85485831e6eb0d41",
	"coloring-grid3-qeqdelta/escalate/11":  "51975cdbb17dba1d",
	"coloring-grid3-qeqdelta/escalate/3":   "b1322e274d1817bc",
	"coloring-grid3-qeqdelta/luby-ess/11":  "494d0837eabdd9fe",
	"coloring-grid3-qeqdelta/luby-ess/3":   "9edec65b3e1db440",
	"hardcore-tree15-below/chromatic/11":   "a209cacc1b0bd84e",
	"hardcore-tree15-below/chromatic/3":    "e7a3318a625afd06",
	"hardcore-tree15-below/escalate/11":    "721aeeaa93f995c2",
	"hardcore-tree15-below/escalate/3":     "fddd375c4d1d90cf",
	"hardcore-tree15-below/luby-ess/11":    "0740627f3b5f1f25",
	"hardcore-tree15-below/luby-ess/3":     "99f54530b7ff05f5",
	"hypermatching-arity3/chromatic/11":    "b75f4c5a56c00bdf",
	"hypermatching-arity3/chromatic/3":     "fdb2957cac9f8313",
	"hypermatching-arity3/escalate/11":     "a3f3c6b3a1f7ea92",
	"hypermatching-arity3/escalate/3":      "ec6e3bfecd84e48e",
	"hypermatching-arity3/luby-ess/11":     "3ae9922021adf36c",
	"hypermatching-arity3/luby-ess/3":      "a9a681efbd9a4850",
	"ising-torus3-low/chromatic/11":        "896fd8691621a01d",
	"ising-torus3-low/chromatic/3":         "2462e64b479d0556",
	"ising-torus3-low/escalate/11":         "1284f92ba00b18ba",
	"ising-torus3-low/escalate/3":          "1c91b3bb67412f15",
	"ising-torus3-low/luby-ess/11":         "d53faba3039a2c92",
	"ising-torus3-low/luby-ess/3":          "d991ffd6154293df",
	"listcoloring-path5/chromatic/11":      "cd40be841d49285c",
	"listcoloring-path5/chromatic/3":       "58b4bc822e394621",
	"listcoloring-path5/escalate/11":       "b34392b6bca0b29a",
	"listcoloring-path5/escalate/3":        "49e3361ee7949afc",
	"listcoloring-path5/luby-ess/11":       "b69d6363115de79a",
	"listcoloring-path5/luby-ess/3":        "8058bb1ffc5f2280",
	"wcsp-explicit-pinned/chromatic/11":    "2ee3339de6b5969b",
	"wcsp-explicit-pinned/chromatic/3":     "f9bddb3b2090a046",
	"wcsp-explicit-pinned/escalate/11":     "f21211ef1b6b6e73",
	"wcsp-explicit-pinned/escalate/3":      "00b661aa432b8842",
	"wcsp-explicit-pinned/luby-ess/11":     "b75bcfdd12785b94",
	"wcsp-explicit-pinned/luby-ess/3":      "d75552494f71c328",
}

func TestDriveDigestGolden(t *testing.T) {
	policies := map[string]run.Policy{
		// The corpus benchmark's policy: metropolis escalating to chromatic
		// on one worker, gated on R̂ alone.
		"escalate": {
			Stages: []run.Stage{
				{Dynamic: "metropolis", MaxSweeps: 128, MinRate: 0.1},
				{Dynamic: "chromatic"},
			},
			Rhat:    1.05,
			Workers: 1,
		},
		// A tight threshold on one worker: most drives run to the budget,
		// well past the first thinning of the snapshot buffer.
		"chromatic": {
			Stages:    []run.Stage{{Dynamic: "chromatic"}},
			Rhat:      1.01,
			MaxSweeps: 600,
			Workers:   1,
		},
		// An ESS floor at two workers.
		"luby-ess": {
			Stages:  []run.Stage{{Dynamic: "luby"}},
			Rhat:    1.02,
			MinESS:  50,
			Workers: 2,
		},
	}
	docs := []string{
		"coloring-grid3-qeqdelta",
		"hardcore-tree15-below",
		"hypermatching-arity3",
		"ising-torus3-low",
		"listcoloring-path5",
		"wcsp-explicit-pinned",
	}
	instances := corpusInstances(t)
	thinned := 0
	for _, doc := range docs {
		in, ok := instances[doc]
		if !ok {
			t.Fatalf("corpus has no %s", doc)
		}
		for pname, p := range policies {
			for _, seed := range []int64{3, 11} {
				key := fmt.Sprintf("%s/%s/%d", doc, pname, seed)
				rep, m, err := run.Drive(in, seed, p)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if st := rep.Stages[len(rep.Stages)-1]; p.Workers == 1 && st.Sweeps > sampler.DefaultRetain {
					thinned++
				}
				got := driveDigest(rep, m)
				if want := driveDigests[key]; got != want {
					t.Errorf("%s: digest %s, want %s\n\t%q: %q,", key, got, want, key, got)
				}
			}
		}
	}
	if thinned == 0 {
		t.Errorf("no one-worker drive observed past the %d-snapshot buffer", sampler.DefaultRetain)
	}
}
