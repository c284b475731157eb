package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/run"
)

// root is the repository root seen from this package's directory.
const root = ".."

// tiny shrinks the torus workloads so every workload runs in a fraction of
// a second.
var tiny = sizes{isingSide: 8, coloringSide: 6}

// TestWorkloadsSmoke runs every workload at tiny size, untraced and traced:
// every request converges and passes its checks, the traced mirror
// reproduces run.Drive, and the run reports exactly its metrics.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			w, err := newWorkload(name, root, tiny)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := measure(w, options{workload: name, seed: 3, seconds: 0.2, trace: traced, root: root})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			r := rep.Result
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", name, traced, r.Correct, r.Attempted, r.Failed, rep.Provenance.Failures)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(r.Metrics), len(want))
			}
			if got := r.Metrics["sweeps_to_converge"]; !traced && got.Value <= 0 {
				t.Errorf("%s: sweeps_to_converge %v", name, got.Value)
			}
		}
	}
}

// TestTracedDriveMatchesDrive holds the traced mirror to run.Drive on an
// escalating policy with burn-in, where the handoff path runs.
func TestTracedDriveMatchesDrive(t *testing.T) {
	w, err := newWorkload(wlCorpus, root, tiny)
	if err != nil {
		t.Fatal(err)
	}
	p := w.policy
	p.BurnIn = 3
	p.Stages = []run.Stage{{Dynamic: "chromatic", MaxSweeps: 16}, {Dynamic: "metropolis"}}
	escalated := false
	for _, d := range w.docs {
		in, err := loadDoc(nil, d.data)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 3; seed++ {
			want, wm, err := run.Drive(in, seed, p)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			got, gm, ds, err := tracedDrive(tr, in, seed, p)
			if err != nil {
				t.Fatal(err)
			}
			if !sameReport(want, got) || !sameLattice(wm.Lattice(), gm.Lattice()) {
				t.Fatalf("%s seed %d: traced mirror diverged:\n%+v\n%+v", d.name, seed, *want, *got)
			}
			if len(ds.stages) != len(got.Stages) || ds.escalations() != len(got.Stages)-1 {
				t.Errorf("%s seed %d: %d traced stages for %d reported", d.name, seed, len(ds.stages), len(got.Stages))
			}
			escalated = escalated || ds.escalations() > 0
			if err := checkNesting(tr.spans); err != nil {
				t.Error(err)
			}
		}
	}
	if !escalated {
		t.Error("no drive escalated: the handoff path went untested")
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json at the repository root lists
// exactly the workloads and metrics the benchmark runs and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q here", i, w.Name, workloadNames[i])
		}
	}
	for _, set := range []struct {
		listed []struct{ Name, Unit, Better string }
		specs  []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(set.listed) != len(set.specs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(set.listed), len(set.specs))
		}
		for i, m := range set.listed {
			s := set.specs[i]
			if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
				t.Errorf("metric %d: %+v in BENCHMARK.json, %+v here", i, m, s)
			}
		}
	}
}

func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{"--workload", wlIsing, "--seed", "-4", "--seconds", "30", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != wlIsing || o.seed != -4 || o.seconds != 30 || !o.trace {
		t.Errorf("parsed %+v", o)
	}
	for _, bad := range [][]string{
		{"--seed", "1"},
		{"--workload", wlIsing, "--trace", "2"},
		{"--workload", wlIsing, "--seconds", "0"},
		{"--workload", wlIsing, "extra"},
	} {
		if _, err := parseArgs(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestFailsWithoutCorpus: without the repository's corpus the benchmark
// exits non-zero and prints no result.
func TestFailsWithoutCorpus(t *testing.T) {
	var out, errOut bytes.Buffer
	code := benchMain([]string{"--workload", wlCorpus, "--seconds", "1", "--root", t.TempDir()}, &out, &errOut)
	if code == 0 || strings.Contains(out.String(), `"correct"`) {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
	if code = benchMain([]string{"--workload", "nope", "--root", root}, &out, &errOut); code == 0 {
		t.Error("unknown workload accepted")
	}
}
