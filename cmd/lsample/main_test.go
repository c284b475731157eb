package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/spec"
	"repro/internal/state"
)

func TestRunModels(t *testing.T) {
	cases := [][]string{
		{"-model", "hardcore", "-graph", "cycle", "-n", "12", "-lambda", "1", "-sampler", "jvv"},
		{"-model", "hardcore", "-graph", "path", "-n", "10", "-sampler", "seq"},
		{"-model", "ising", "-graph", "cycle", "-n", "10", "-beta", "0.8", "-sampler", "seq"},
		{"-model", "coloring", "-graph", "cycle", "-n", "10", "-q", "5", "-sampler", "jvv"},
		{"-model", "matching", "-graph", "cycle", "-n", "8", "-lambda", "1.5", "-sampler", "jvv"},
		{"-model", "hardcore", "-graph", "tree", "-n", "15", "-lambda", "0.5", "-sampler", "seq"},
		{"-model", "hardcore", "-graph", "grid", "-n", "3", "-lambda", "0.4", "-sampler", "seq"},
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, args := range cases {
		if err := run(args, devnull); err != nil {
			t.Errorf("run(%v) = %v", args, err)
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	bad := [][]string{
		{"-model", "nosuch"},
		{"-graph", "nosuch"},
		{"-sampler", "nosuch", "-n", "6"},
		// Non-uniqueness hardcore must be refused (the lower-bound regime).
		{"-model", "hardcore", "-graph", "grid", "-n", "4", "-lambda", "50"},
		// Ising outside the uniqueness window.
		{"-model", "ising", "-graph", "grid", "-n", "4", "-beta", "0.1"},
	}
	for _, args := range bad {
		if err := run(args, devnull); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
	// Negative step counts are flag errors, never a silent fallback to
	// the default budget.
	for _, args := range [][]string{
		{"-n", "6", "-algo", "luby", "-rounds", "-3"},
		{"-n", "6", "-algo", "chromatic", "-sweeps", "-2"},
		{"-n", "6", "-algo", "metropolis", "-chains", "4", "-rhat", "-sweeps", "-1"},
	} {
		flagName := args[len(args)-2]
		if err := run(args, devnull); err == nil || !strings.Contains(err.Error(), flagName+" ") || !strings.Contains(err.Error(), "negative") {
			t.Errorf("run(%v) = %v, want a %s flag error", args, err, flagName)
		}
	}
	// A zero sweep budget with no -rounds is a flag error, on the fixed
	// budget and the driver path alike, never a silent single sweep.
	for _, args := range [][]string{
		{"-n", "6", "-algo", "chromatic", "-sweeps", "0"},
		{"-n", "8", "-algo", "glauber", "-sweeps", "0"},
		{"-n", "6", "-algo", "chromatic", "-chains", "4", "-rhat", "-sweeps", "0"},
	} {
		if err := run(args, devnull); err == nil || !strings.Contains(err.Error(), "-sweeps 0") {
			t.Errorf("run(%v) = %v, want a -sweeps flag error", args, err)
		}
	}
	// Negative or non-finite convergence targets are flag errors too:
	// otherwise a NaN or negative -min-ess would run the fixed-budget path
	// and 'rhat<Inf' would stop "converged" at the first check.
	for _, args := range [][]string{
		{"-n", "6", "-algo", "chromatic", "-chains", "4", "-min-ess", "-5"},
		{"-n", "6", "-algo", "chromatic", "-chains", "4", "-min-ess", "NaN"},
		{"-n", "6", "-algo", "chromatic", "-chains", "4", "-min-ess", "Inf"},
		{"-n", "6", "-algo", "chromatic", "-chains", "4", "-converge", "rhat<Inf"},
		{"-n", "6", "-algo", "chromatic", "-chains", "4", "-converge", "rhat<NaN"},
	} {
		flagName := args[len(args)-2]
		if err := run(args, devnull); err == nil || !strings.Contains(err.Error(), flagName+" ") {
			t.Errorf("run(%v) = %v, want a %s flag error", args, err, flagName)
		}
	}
}

// TestSpecFlagEquivalence is the contract of the redesigned construction
// path: the legacy -model/-graph/-n flags synthesize a spec document, and
// running that document through -spec must reproduce the legacy run's
// output stream byte for byte (same instance, same seed, same dynamics).
func TestSpecFlagEquivalence(t *testing.T) {
	cases := []struct {
		name   string
		legacy []string // instance-describing flags
		rest   []string // sampler/seed flags shared by both runs
	}{
		{"hardcore-glauber", []string{"-model", "hardcore", "-graph", "cycle", "-n", "12", "-lambda", "1.3"},
			[]string{"-algo", "glauber", "-sweeps", "8", "-seed", "7"}},
		{"ising-metropolis", []string{"-model", "ising", "-graph", "torus", "-n", "4", "-beta", "0.7"},
			[]string{"-algo", "metropolis", "-rounds", "20", "-seed", "3"}},
		{"coloring-chromatic-batch", []string{"-model", "coloring", "-graph", "grid", "-n", "3", "-q", "6"},
			[]string{"-algo", "chromatic", "-chains", "4", "-sweeps", "6", "-seed", "11"}},
		{"matching-jvv", []string{"-model", "matching", "-graph", "path", "-n", "8", "-lambda", "1.5"},
			[]string{"-sampler", "jvv", "-seed", "5"}},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Synthesize the document exactly as the legacy path does and
			// write it out.
			fs := flag.NewFlagSet("capture", flag.ContinueOnError)
			var o options
			fs.StringVar(&o.model, "model", "hardcore", "")
			fs.StringVar(&o.graph, "graph", "cycle", "")
			fs.IntVar(&o.n, "n", 24, "")
			fs.Float64Var(&o.lambda, "lambda", 1.0, "")
			fs.IntVar(&o.q, "q", 5, "")
			fs.Float64Var(&o.beta, "beta", 0.6, "")
			if err := fs.Parse(tc.legacy); err != nil {
				t.Fatal(err)
			}
			f, err := legacySpec(o)
			if err != nil {
				t.Fatal(err)
			}
			data, err := f.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			specPath := filepath.Join(dir, tc.name+".json")
			if err := os.WriteFile(specPath, data, 0o644); err != nil {
				t.Fatal(err)
			}

			capture := func(args []string) string {
				out, err := os.CreateTemp(dir, "out")
				if err != nil {
					t.Fatal(err)
				}
				defer out.Close()
				if err := run(args, out); err != nil {
					t.Fatalf("run(%v) = %v", args, err)
				}
				got, err := os.ReadFile(out.Name())
				if err != nil {
					t.Fatal(err)
				}
				return string(got)
			}
			legacy := capture(append(append([]string{}, tc.legacy...), tc.rest...))
			viaSpec := capture(append([]string{"-spec", specPath}, tc.rest...))
			if legacy != viaSpec {
				t.Errorf("legacy flags and -spec diverge:\nlegacy:\n%s\nspec:\n%s", legacy, viaSpec)
			}
		})
	}
}

// TestSpecFlagConflicts pins the -spec flag's guardrails: instance flags
// alongside -spec are an error, as are unreadable and invalid documents.
func TestSpecFlagConflicts(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	f := &spec.File{
		Version: spec.Version,
		Graph:   spec.Graph{Kind: "cycle", N: 10},
		Model:   &spec.Model{Kind: "hardcore", Lambda: 1},
	}
	data, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-spec", good, "-algo", "glauber", "-sweeps", "2"}, devnull); err != nil {
		t.Errorf("valid -spec run failed: %v", err)
	}
	if err := run([]string{"-spec", good, "-model", "ising"}, devnull); err == nil {
		t.Error("-spec with -model accepted")
	}
	if err := run([]string{"-spec", filepath.Join(dir, "missing.json")}, devnull); err == nil {
		t.Error("missing spec file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var se *spec.Error
	if err := run([]string{"-spec", bad}, devnull); !errors.As(err, &se) {
		t.Errorf("invalid spec returned %v, want *spec.Error", err)
	}
	if err := run([]string{"-chains", "0", "-algo", "chromatic", "-n", "8"}, devnull); err == nil {
		t.Error("-chains 0 accepted")
	}
}

func TestRunAlgos(t *testing.T) {
	cases := [][]string{
		{"-model", "hardcore", "-graph", "cycle", "-n", "16", "-lambda", "1.2", "-algo", "luby"},
		{"-model", "hardcore", "-graph", "torus", "-n", "4", "-lambda", "0.8", "-algo", "metropolis", "-rounds", "50"},
		{"-model", "coloring", "-graph", "grid", "-n", "3", "-q", "6", "-algo", "luby", "-rounds", "40"},
		{"-model", "ising", "-graph", "cycle", "-n", "12", "-beta", "0.7", "-algo", "metropolis"},
		{"-model", "matching", "-graph", "path", "-n", "8", "-lambda", "1.5", "-algo", "luby"},
		{"-model", "hardcore", "-graph", "path", "-n", "10", "-algo", "glauber", "-sweeps", "10"},
		// -algo does not require the uniqueness regime: λ above λc is fine.
		{"-model", "hardcore", "-graph", "grid", "-n", "3", "-lambda", "50", "-algo", "luby"},
		// The registry dynamics and the batched multi-chain engines.
		{"-model", "hardcore", "-graph", "cycle", "-n", "12", "-algo", "chromatic", "-sweeps", "20"},
		{"-model", "ising", "-graph", "torus", "-n", "4", "-beta", "0.7", "-algo", "chromatic", "-chains", "8", "-sweeps", "10"},
		{"-model", "coloring", "-graph", "grid", "-n", "3", "-q", "6", "-algo", "chromatic", "-chains", "3", "-rounds", "15"},
		{"-model", "hardcore", "-graph", "cycle", "-n", "12", "-algo", "luby", "-chains", "4", "-rounds", "30"},
		{"-model", "ising", "-graph", "torus", "-n", "4", "-beta", "0.7", "-algo", "metropolis", "-chains", "8", "-rounds", "20"},
		{"-model", "matching", "-graph", "path", "-n", "8", "-lambda", "1.5", "-algo", "luby", "-chains", "6", "-rounds", "25"},
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, args := range cases {
		if err := run(args, devnull); err != nil {
			t.Errorf("run(%v) = %v", args, err)
		}
	}
	if err := run([]string{"-algo", "nosuch", "-n", "6"}, devnull); err == nil {
		t.Error("bogus -algo accepted")
	}
	// The sequential baseline has no batched multi-chain form.
	if err := run([]string{"-algo", "glauber", "-chains", "4", "-n", "6"}, devnull); err == nil {
		t.Error("-chains with -algo glauber accepted")
	}
	// ... and -chains without -algo must be rejected, not silently ignored.
	if err := run([]string{"-sampler", "jvv", "-chains", "4", "-n", "6"}, devnull); err == nil {
		t.Error("-chains with -sampler accepted")
	}
}

// TestRunRhat exercises the Gelman–Rubin path of the batched engine and
// its preconditions.
func TestRunRhat(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	ok := [][]string{
		{"-model", "ising", "-graph", "cycle", "-n", "10", "-beta", "0.7", "-algo", "chromatic", "-chains", "4", "-sweeps", "8", "-rhat"},
		{"-model", "hardcore", "-graph", "grid", "-n", "3", "-algo", "chromatic", "-chains", "2", "-rounds", "5", "-rhat"},
		// R̂ generalizes to the batched LubyGlauber and LocalMetropolis engines.
		{"-model", "hardcore", "-graph", "cycle", "-n", "10", "-algo", "luby", "-chains", "4", "-rounds", "8", "-rhat"},
		{"-model", "ising", "-graph", "cycle", "-n", "10", "-beta", "0.7", "-algo", "metropolis", "-chains", "4", "-rounds", "8", "-rhat"},
	}
	for _, args := range ok {
		if err := run(args, devnull); err != nil {
			t.Errorf("run(%v) = %v", args, err)
		}
	}
	bad := [][]string{
		// R̂ needs ≥ 2 chains.
		{"-model", "ising", "-graph", "cycle", "-n", "10", "-beta", "0.7", "-algo", "chromatic", "-rhat"},
		{"-model", "hardcore", "-graph", "cycle", "-n", "10", "-algo", "luby", "-rhat"},
		// ... and a batched dynamic, not the exact/approximate samplers or
		// the sequential baseline.
		{"-model", "hardcore", "-graph", "cycle", "-n", "10", "-algo", "glauber", "-chains", "4", "-rhat"},
		{"-model", "hardcore", "-graph", "cycle", "-n", "10", "-sampler", "jvv", "-rhat"},
	}
	for _, args := range bad {
		if err := run(args, devnull); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestRunConvergeStopsEarly is the acceptance criterion of the adaptive
// driver wiring: on a fast-mixing corpus instance, -converge 'rhat<1.05'
// must stop in fewer sweep-equivalents than the fixed default budget of
// 64, and say so in the report line.
func TestRunConvergeStopsEarly(t *testing.T) {
	dir := t.TempDir()
	out, err := os.CreateTemp(dir, "out")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	args := []string{"-spec", "../../testdata/corpus/hardcore-tree15-below.json",
		"-algo", "chromatic", "-converge", "rhat<1.05", "-seed", "5"}
	if err := run(args, out); err != nil {
		t.Fatalf("run(%v) = %v", args, err)
	}
	got, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	text := string(got)
	if !strings.Contains(text, "stop=converged") {
		t.Fatalf("run did not converge:\n%s", text)
	}
	m := regexp.MustCompile(`sweeps=(\d+) stop=`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("no sweep count in report:\n%s", text)
	}
	sweeps, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	if sweeps >= 64 {
		t.Errorf("adaptive stop used %d sweeps, want fewer than the fixed default 64:\n%s", sweeps, text)
	}
}

// TestRunAdaptiveFlags covers the driver path's flag surface: escalation
// lists, -min-ess, -burnin, and the rejections.
func TestRunAdaptiveFlags(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	ok := [][]string{
		// Escalation list with a rate floor and both targets.
		{"-model", "hardcore", "-graph", "cycle", "-n", "12", "-lambda", "2",
			"-algo", "metropolis,chromatic", "-min-rate", "0.99", "-converge", "rhat<1.2", "-sweeps", "200"},
		// -min-ess alone triggers the driver; -chains defaults up.
		{"-model", "ising", "-graph", "cycle", "-n", "10", "-beta", "0.7",
			"-algo", "chromatic", "-min-ess", "50", "-sweeps", "200"},
		// Burn-in plus an explicit chain count.
		{"-model", "hardcore", "-graph", "grid", "-n", "3",
			"-algo", "luby", "-chains", "4", "-burnin", "8", "-converge", "rhat<1.3", "-sweeps", "300"},
	}
	for _, args := range ok {
		if err := run(args, devnull); err != nil {
			t.Errorf("run(%v) = %v", args, err)
		}
	}
	bad := [][]string{
		// Escalation lists need the adaptive driver.
		{"-model", "hardcore", "-n", "10", "-algo", "chromatic,metropolis"},
		// Unknown stage inside the list.
		{"-model", "hardcore", "-n", "10", "-algo", "chromatic,nosuch", "-converge", "rhat<1.1"},
		// Unparseable criterion.
		{"-model", "hardcore", "-n", "10", "-algo", "chromatic", "-converge", "ess>100"},
		// Explicit -chains 1 stays a cross-chain error even with -converge.
		{"-model", "hardcore", "-n", "10", "-algo", "chromatic", "-chains", "1", "-converge", "rhat<1.1"},
		// The -sampler path has no driver.
		{"-model", "hardcore", "-n", "10", "-sampler", "jvv", "-converge", "rhat<1.1"},
		{"-model", "hardcore", "-n", "10", "-sampler", "jvv", "-min-ess", "10"},
	}
	for _, args := range bad {
		if err := run(args, devnull); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestRunProfiles checks the pprof wiring: both profile files must exist
// and be non-empty after a run, and an uncreatable profile path must fail
// the run instead of sampling unprofiled.
func TestRunProfiles(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	args := []string{"-model", "hardcore", "-graph", "cycle", "-n", "16", "-algo", "chromatic",
		"-chains", "4", "-sweeps", "5", "-cpuprofile", cpu, "-memprofile", mem}
	if err := run(args, devnull); err != nil {
		t.Fatalf("run(%v) = %v", args, err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Errorf("profile %s not written: %v", path, err)
		} else if fi.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
	if err := run([]string{"-n", "6", "-cpuprofile", dir + "/no/such/dir.pprof"}, devnull); err == nil {
		t.Error("uncreatable -cpuprofile path accepted")
	}
}

// TestRunSurfacesDomainError checks that an unrepresentable lattice shape
// comes back as the state container's typed error, the contract main()
// relies on for its friendlier rendering.
func TestRunSurfacesDomainError(t *testing.T) {
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	var de *state.DomainError
	err = run([]string{"-model", "hardcore", "-graph", "cycle", "-n", "8", "-algo", "chromatic", "-chains", "-3"}, devnull)
	if !errors.As(err, &de) {
		t.Errorf("negative -chains returned %v, want *state.DomainError", err)
	}
}

// TestRunVerbose pins -v: the run is prefixed with the conditional-CDF
// cache coverage line, and the sample stream after it is the plain run's.
func TestRunVerbose(t *testing.T) {
	dir := t.TempDir()
	capture := func(args ...string) string {
		t.Helper()
		out, err := os.CreateTemp(dir, "out")
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		if err := run(args, out); err != nil {
			t.Fatalf("run(%v) = %v", args, err)
		}
		got, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(got)
	}
	base := []string{"-model", "hardcore", "-graph", "torus", "-n", "4", "-algo", "chromatic", "-chains", "6", "-sweeps", "8", "-seed", "9"}
	plain := capture(base...)
	line, rest, _ := strings.Cut(capture(append(append([]string{}, base...), "-v")...), "\n")
	if !strings.HasPrefix(line, "cond-cache: cached=16/16 vertices bytes=") {
		t.Errorf("-v coverage line missing or wrong: %q", line)
	}
	if rest != plain {
		t.Errorf("-v changed the sample stream:\nplain:\n%s\n-v:\n%s", plain, rest)
	}
	// The 10-colourings of an 8×8 torus fit no vertex into the cache
	// (q^(deg+1) = 10⁵ entries), and every vertex takes the mask draw.
	col := []string{"-model", "coloring", "-q", "10", "-graph", "torus", "-n", "8", "-algo", "luby", "-chains", "4", "-sweeps", "2", "-v"}
	if line, _, _ := strings.Cut(capture(col...), "\n"); line != "cond-cache: cached=0/64 vertices bytes=0 zero-one=64" {
		t.Errorf("-v coverage line on the q = 10 torus: %q", line)
	}
}

// TestRunEdgeInstances drives degenerate instance documents through every
// surface: a 4-cycle hardcore instance with every vertex pinned, five
// isolated vertices, an explicit q = 1 factor on a 3-path and two disjoint
// triangles, each under the batched engines with -rhat, the adaptive
// driver (-converge, -min-ess, an escalation with -min-rate), the
// sequential baseline and both exact/approximate samplers. Every run must
// return nil without a panic, except that the jvv and seq samplers refuse
// the explicit-factor document with their "need a named model" error.
func TestRunEdgeInstances(t *testing.T) {
	dir := t.TempDir()
	specs := []struct {
		name, doc string
		explicit  bool
	}{
		{"pinned-cycle4", `{"version": 1, "graph": {"kind": "cycle", "n": 4},
			"model": {"kind": "hardcore", "lambda": 1},
			"pin": [{"v": 0, "x": 1}, {"v": 1, "x": 0}, {"v": 2, "x": 1}, {"v": 3, "x": 0}]}`, false},
		{"isolated5", `{"version": 1, "graph": {"n": 5}, "model": {"kind": "hardcore", "lambda": 1}}`, false},
		{"q1-path3", `{"version": 1, "graph": {"kind": "path", "n": 3}, "q": 1,
			"factors": [{"scope": [0, 1], "table": [1]}, {"scope": [1, 2], "table": [1]}]}`, true},
		{"triangles2", `{"version": 1, "graph": {"n": 6, "edges": [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]]},
			"model": {"kind": "hardcore", "lambda": 1}}`, false},
	}
	runs := []struct {
		args    []string
		sampler bool
	}{
		{[]string{"-algo", "chromatic", "-chains", "4", "-rhat"}, false},
		{[]string{"-algo", "luby", "-chains", "4", "-converge", "rhat<1.05"}, false},
		{[]string{"-algo", "metropolis", "-chains", "4", "-converge", "rhat<1.05", "-min-ess", "10"}, false},
		{[]string{"-algo", "glauber"}, false},
		{[]string{"-algo", "chromatic,metropolis", "-chains", "4", "-converge", "rhat<1.05", "-min-rate", "0.5"}, false},
		{[]string{"-sampler", "jvv"}, true},
		{[]string{"-sampler", "seq"}, true},
	}
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	for _, sp := range specs {
		path := filepath.Join(dir, sp.name+".json")
		if err := os.WriteFile(path, []byte(sp.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			args := append([]string{"-spec", path}, r.args...)
			err := func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("run(%v) panicked: %v", args, p)
					}
				}()
				return run(args, devnull)
			}()
			switch {
			case sp.explicit && r.sampler:
				if err == nil || !strings.Contains(err.Error(), "need a named model") {
					t.Errorf("run(%v) = %v, want the named-model error", args, err)
				}
			case err != nil:
				t.Errorf("run(%v) = %v", args, err)
			}
		}
	}
}
