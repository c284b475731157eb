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
	"coloring-grid3-qeqdelta/chromatic/11": "752586924dc00f63",
	"coloring-grid3-qeqdelta/chromatic/3":  "d422998574a1ff7f",
	"coloring-grid3-qeqdelta/escalate/11":  "5c3a7582c823f93a",
	"coloring-grid3-qeqdelta/escalate/3":   "b6fca20c52ad24f7",
	"coloring-grid3-qeqdelta/luby-ess/11":  "33e76bdda4f1b1e1",
	"coloring-grid3-qeqdelta/luby-ess/3":   "dc074a92ed7c0d15",
	"hardcore-tree15-below/chromatic/11":   "e846af2ea208fdf1",
	"hardcore-tree15-below/chromatic/3":    "c28bfdb4a0f8bac6",
	"hardcore-tree15-below/escalate/11":    "45cd91ffd19b8be4",
	"hardcore-tree15-below/escalate/3":     "d05391655e713191",
	"hardcore-tree15-below/luby-ess/11":    "9648cfa25067f524",
	"hardcore-tree15-below/luby-ess/3":     "eb7c6041039cd51a",
	"hypermatching-arity3/chromatic/11":    "b89bf9ef5debb07a",
	"hypermatching-arity3/chromatic/3":     "f44c1a1bccb66f8e",
	"hypermatching-arity3/escalate/11":     "d5211d317043eafa",
	"hypermatching-arity3/escalate/3":      "8a00649d68900f5e",
	"hypermatching-arity3/luby-ess/11":     "cebc2a63af696cd4",
	"hypermatching-arity3/luby-ess/3":      "283c416035688994",
	"ising-torus3-low/chromatic/11":        "451234d70933bcde",
	"ising-torus3-low/chromatic/3":         "978c5d5fe32fe5d8",
	"ising-torus3-low/escalate/11":         "2783f1d347162138",
	"ising-torus3-low/escalate/3":          "4d8a268e096ee42c",
	"ising-torus3-low/luby-ess/11":         "5a586ec2ca4fdc3c",
	"ising-torus3-low/luby-ess/3":          "bd0f6e490a496a80",
	"listcoloring-path5/chromatic/11":      "0f51d0df4379c130",
	"listcoloring-path5/chromatic/3":       "7c88ab658084d327",
	"listcoloring-path5/escalate/11":       "6f32d3edee846be0",
	"listcoloring-path5/escalate/3":        "54727cd1f759a92e",
	"listcoloring-path5/luby-ess/11":       "121c1bc243a963ed",
	"listcoloring-path5/luby-ess/3":        "67f99736a6326f29",
	"wcsp-explicit-pinned/chromatic/11":    "2ee3339de6b5969b",
	"wcsp-explicit-pinned/chromatic/3":     "f9bddb3b2090a046",
	"wcsp-explicit-pinned/escalate/11":     "f21211ef1b6b6e73",
	"wcsp-explicit-pinned/escalate/3":      "8c6d4c83a699a7c4",
	"wcsp-explicit-pinned/luby-ess/11":     "177c25fe91ace782",
	"wcsp-explicit-pinned/luby-ess/3":      "9f53303277ad6f19",
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
