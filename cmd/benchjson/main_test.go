package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

const sampleStream = `{"Action":"start","Package":"repro"}
{"Action":"output","Package":"repro","Output":"goos: linux\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkGlauberStep-8   \t 1000000\t       96.51 ns/op\t       0 B/op\t       0 allocs/op\n"}
{"Action":"output","Package":"repro","Output":"BenchmarkSamplerSweep/lubyglauber-sharded-8 \t 100\t 179584 ns/op\t 117.6 updates/round\t 5600 B/op\t 8 allocs/op\n"}
not-json noise line
{"Action":"output","Package":"repro/internal/dist","Output":"BenchmarkTV \t 5\t 1234 ns/op\n"}
{"Action":"output","Package":"repro","Output":"PASS\n"}
{"Action":"pass","Package":"repro"}
`

func TestParseBenchStream(t *testing.T) {
	var echo bytes.Buffer
	report, failed, err := parse(strings.NewReader(sampleStream), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatal("stream marked failed")
	}
	if len(report.Benchmarks) != 3 {
		t.Fatalf("benchmarks = %d, want 3: %+v", len(report.Benchmarks), report.Benchmarks)
	}
	// Sorted by package then name: repro/… sorts after repro.
	b0 := report.Benchmarks[0]
	if b0.Name != "BenchmarkGlauberStep" || b0.Iterations != 1000000 {
		t.Errorf("first record = %+v", b0)
	}
	if b0.Metrics["ns/op"] != 96.51 || b0.Metrics["allocs/op"] != 0 {
		t.Errorf("metrics = %v", b0.Metrics)
	}
	b1 := report.Benchmarks[1]
	if b1.Name != "BenchmarkSamplerSweep/lubyglauber-sharded" {
		t.Errorf("subbenchmark name = %q (procs suffix must be stripped)", b1.Name)
	}
	if b1.Metrics["updates/round"] != 117.6 || b1.Metrics["B/op"] != 5600 {
		t.Errorf("custom metrics = %v", b1.Metrics)
	}
	if report.Benchmarks[2].Package != "repro/internal/dist" {
		t.Errorf("order = %+v", report.Benchmarks)
	}
	if !strings.Contains(echo.String(), "BenchmarkGlauberStep") {
		t.Error("benchmark lines not echoed for the CI log")
	}
	if strings.Contains(echo.String(), "goos") {
		t.Error("non-benchmark output echoed")
	}
}

func TestParseReportsFailure(t *testing.T) {
	stream := `{"Action":"output","Package":"p","Output":"BenchmarkX-4 \t 2\t 10 ns/op\n"}
{"Action":"fail","Package":"p"}
`
	var echo bytes.Buffer
	report, failed, err := parse(strings.NewReader(stream), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Error("failure not propagated")
	}
	if len(report.Benchmarks) != 1 {
		t.Errorf("benchmarks = %+v", report.Benchmarks)
	}
}

func TestParseBenchLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"Benchmark",                 // no iterations or metrics
		"BenchmarkX 12",             // no metrics
		"BenchmarkX 12 3 ns/op 4",   // dangling value without a unit
		"BenchmarkX twelve 3 ns/op", // non-numeric iterations
	} {
		if _, ok := parseBenchLine("p", line); ok {
			t.Errorf("line %q accepted", line)
		}
	}
}

func TestPrintDelta(t *testing.T) {
	base := &Report{Benchmarks: []Result{
		{Package: "p", Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 100}},
		{Package: "p", Name: "BenchmarkGone", Metrics: map[string]float64{"ns/op": 7}},
		{Package: "q", Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 50}},
	}}
	cur := &Report{Benchmarks: []Result{
		{Package: "p", Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 150}},
		{Package: "p", Name: "BenchmarkNew", Metrics: map[string]float64{"ns/op": 5}},
		{Package: "q", Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 25}},
	}}
	var out bytes.Buffer
	printDelta(&out, base, cur, 0, 0, 0, nil)
	s := out.String()
	for _, want := range []string{"+50.0%", "-50.0%", "new", "BenchmarkNew", "missing", "BenchmarkGone"} {
		if !strings.Contains(s, want) {
			t.Errorf("delta output missing %q:\n%s", want, s)
		}
	}
	// Same-package benchmarks with the same name in different packages must
	// not be conflated: q's BenchmarkA halved while p's grew.
	if strings.Count(s, "BenchmarkA") != 2 {
		t.Errorf("expected both package entries for BenchmarkA:\n%s", s)
	}
	// Without -warn no regression machinery fires.
	if strings.Contains(s, "REGRESSION") || strings.Contains(s, "WARNING") {
		t.Errorf("warn output without -warn:\n%s", s)
	}
}

func TestPrintDeltaWarn(t *testing.T) {
	base := &Report{Benchmarks: []Result{
		{Package: "p", Name: "BenchmarkSlow", Metrics: map[string]float64{"ns/op": 100}},
		{Package: "p", Name: "BenchmarkEdge", Metrics: map[string]float64{"ns/op": 100}},
		{Package: "p", Name: "BenchmarkFine", Metrics: map[string]float64{"ns/op": 100}},
	}}
	cur := &Report{Benchmarks: []Result{
		{Package: "p", Name: "BenchmarkSlow", Metrics: map[string]float64{"ns/op": 140}},
		{Package: "p", Name: "BenchmarkEdge", Metrics: map[string]float64{"ns/op": 125}}, // exactly the threshold: not flagged
		{Package: "p", Name: "BenchmarkFine", Metrics: map[string]float64{"ns/op": 90}},
	}}
	var out bytes.Buffer
	gated := printDelta(&out, base, cur, 25, 0, 0, nil)
	s := out.String()
	if strings.Count(s, "REGRESSION") != 1 || !strings.Contains(s, "BenchmarkSlow") {
		t.Errorf("expected exactly BenchmarkSlow flagged:\n%s", s)
	}
	if !strings.Contains(s, "WARNING: 1 benchmark(s) regressed > 25%") {
		t.Errorf("missing warn summary:\n%s", s)
	}
	if len(gated) != 0 {
		t.Errorf("warn-only run gated %v", gated)
	}
}

// TestPrintDeltaFail pins the failing gate: only allowlisted benchmarks
// (name-substring match) beyond the -fail threshold are returned, marked
// FAIL, and summarized; allowlisted deltas at or under the threshold and
// non-allowlisted regressions of any size stay warn-only.
func TestPrintDeltaFail(t *testing.T) {
	base := &Report{Benchmarks: []Result{
		{Package: "p", Name: "BenchmarkBatchSweep/B=32", Metrics: map[string]float64{"ns/op": 100}},
		{Package: "p", Name: "BenchmarkBatchSweep/B=8", Metrics: map[string]float64{"ns/op": 100}},
		{Package: "p", Name: "BenchmarkGlauberStep", Metrics: map[string]float64{"ns/op": 100}},
		{Package: "p", Name: "BenchmarkNoisy", Metrics: map[string]float64{"ns/op": 100}},
	}}
	cur := &Report{Benchmarks: []Result{
		{Package: "p", Name: "BenchmarkBatchSweep/B=32", Metrics: map[string]float64{"ns/op": 180}},
		{Package: "p", Name: "BenchmarkBatchSweep/B=8", Metrics: map[string]float64{"ns/op": 150}}, // exactly the threshold: not gated
		{Package: "p", Name: "BenchmarkGlauberStep", Metrics: map[string]float64{"ns/op": 130}},    // allowlisted, above warn, below fail
		{Package: "p", Name: "BenchmarkNoisy", Metrics: map[string]float64{"ns/op": 900}},          // not allowlisted: warn only
	}}
	var out bytes.Buffer
	gated := printDelta(&out, base, cur, 25, 50, 0, []string{"GlauberStep", "BatchSweep"})
	s := out.String()
	if len(gated) != 1 || gated[0] != "BenchmarkBatchSweep/B=32" {
		t.Errorf("gated = %v, want exactly BenchmarkBatchSweep/B=32:\n%s", gated, s)
	}
	if strings.Count(s, "  FAIL") != 1 {
		t.Errorf("expected exactly one FAIL marker:\n%s", s)
	}
	if !strings.Contains(s, "FAIL: 1 allowlisted benchmark(s) regressed > 50%") {
		t.Errorf("missing fail summary:\n%s", s)
	}
	// The sub-threshold allowlisted benchmarks and the noisy outsider all
	// fall back to the warn path.
	if strings.Count(s, "REGRESSION") != 3 {
		t.Errorf("expected B=8, GlauberStep and Noisy as warn-only REGRESSIONs:\n%s", s)
	}
	// With no allowlist the gate is inert even when -fail is set.
	out.Reset()
	if g := printDelta(&out, base, cur, 0, 50, 0, nil); len(g) != 0 {
		t.Errorf("empty allowlist gated %v", g)
	}
}

// TestPrintDeltaFailAllocs pins the allocs/op gate: allowlisted
// benchmarks whose allocation count grows beyond the threshold — or at
// all from a zero-alloc baseline — are gated, independently of their
// ns/op delta; non-allowlisted alloc growth and within-threshold growth
// pass.
func TestPrintDeltaFailAllocs(t *testing.T) {
	base := &Report{Benchmarks: []Result{
		{Package: "p", Name: "BenchmarkGlauberStep", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 0}},
		{Package: "p", Name: "BenchmarkBatchLubySweep/B=32", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 8}},
		{Package: "p", Name: "BenchmarkBatchSweep/B=8", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 8}},
		{Package: "p", Name: "BenchmarkNoisy", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 1}},
	}}
	cur := &Report{Benchmarks: []Result{
		// Zero-alloc baseline growing at all: gated even though ns/op improved.
		{Package: "p", Name: "BenchmarkGlauberStep", Metrics: map[string]float64{"ns/op": 90, "allocs/op": 2}},
		// Above the 50% alloc threshold: gated.
		{Package: "p", Name: "BenchmarkBatchLubySweep/B=32", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 13}},
		// At the threshold exactly: not gated.
		{Package: "p", Name: "BenchmarkBatchSweep/B=8", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 12}},
		// Not allowlisted: alloc growth ignored.
		{Package: "p", Name: "BenchmarkNoisy", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 100}},
	}}
	var out bytes.Buffer
	gated := printDelta(&out, base, cur, 0, 0, 50, []string{"GlauberStep", "BatchSweep", "BatchLuby"})
	s := out.String()
	if len(gated) != 2 {
		t.Errorf("gated = %v, want the zero-alloc and >50%% growers:\n%s", gated, s)
	}
	for _, want := range []string{"BenchmarkGlauberStep", "BenchmarkBatchLubySweep/B=32"} {
		found := false
		for _, g := range gated {
			if g == want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s not gated: %v\n%s", want, gated, s)
		}
	}
	if !strings.Contains(s, "0 -> 2 allocs/op") || !strings.Contains(s, "8 -> 13 allocs/op") {
		t.Errorf("alloc markers missing:\n%s", s)
	}
	if !strings.Contains(s, "FAIL: 2 allowlisted benchmark(s) regressed > 50% allocs/op") {
		t.Errorf("missing allocs fail summary:\n%s", s)
	}
	// With the gate off, nothing fires.
	out.Reset()
	if g := printDelta(&out, base, cur, 0, 0, 0, []string{"GlauberStep"}); len(g) != 0 {
		t.Errorf("disabled allocs gate fired: %v", g)
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" GlauberStep, CondWeights ,,BatchSweep, BatchLuby,BatchMetropolis, ")
	want := []string{"GlauberStep", "CondWeights", "BatchSweep", "BatchLuby", "BatchMetropolis"}
	if len(got) != len(want) {
		t.Fatalf("splitList = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitList = %v, want %v", got, want)
		}
	}
	if splitList("") != nil {
		t.Error("empty list must disable the gate")
	}
}

func TestReadReportRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/r.json"
	want := &Report{Benchmarks: []Result{
		{Package: "p", Name: "BenchmarkA", Iterations: 3, Metrics: map[string]float64{"ns/op": 12}},
	}}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != 1 || got.Benchmarks[0].Metrics["ns/op"] != 12 {
		t.Errorf("roundtrip = %+v", got)
	}
	if _, err := readReport(dir + "/missing.json"); err == nil {
		t.Error("missing baseline accepted")
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readReport(path); err == nil {
		t.Error("corrupt baseline accepted")
	}
}

// TestParseSplitBenchLine is the regression test for slow benchmarks:
// `go test` prints the name first and the numbers when the benchmark
// finishes, so test2json emits the halves as separate Output events. The
// parser must reassemble them (per package) instead of dropping the
// benchmark.
func TestParseSplitBenchLine(t *testing.T) {
	stream := `{"Action":"output","Package":"p","Output":"BenchmarkSlow-8   \t"}
{"Action":"output","Package":"q","Output":"BenchmarkOther-8 \t 3\t 7 ns/op\n"}
{"Action":"output","Package":"p","Output":" 1\t 123456789 ns/op\t 5.5 tables/op\n"}
{"Action":"output","Package":"p","Output":"BenchmarkTail-8 \t 2\t 42 ns/op"}
{"Action":"pass","Package":"p"}
`
	var echo bytes.Buffer
	report, failed, err := parse(strings.NewReader(stream), &echo)
	if err != nil || failed {
		t.Fatal(err, failed)
	}
	if len(report.Benchmarks) != 3 {
		t.Fatalf("benchmarks = %+v, want 3", report.Benchmarks)
	}
	by := map[string]Result{}
	for _, r := range report.Benchmarks {
		by[r.Name] = r
	}
	slow, ok := by["BenchmarkSlow"]
	if !ok || slow.Metrics["ns/op"] != 123456789 || slow.Metrics["tables/op"] != 5.5 {
		t.Errorf("split line not reassembled: %+v", slow)
	}
	// A line left without a trailing newline at stream end still counts.
	if tail, ok := by["BenchmarkTail"]; !ok || tail.Metrics["ns/op"] != 42 {
		t.Errorf("unterminated final line dropped: %+v", tail)
	}
	if _, ok := by["BenchmarkOther"]; !ok {
		t.Error("interleaved package line lost")
	}
}

// TestMedianReport pins the -regen merge: per-benchmark per-metric medians
// across runs, benchmarks missing from some runs kept at the median of the
// runs that reported them, output sorted by package and name.
func TestMedianReport(t *testing.T) {
	mk := func(name string, ns float64, iters int64, extra map[string]float64) Result {
		m := map[string]float64{"ns/op": ns}
		for k, v := range extra {
			m[k] = v
		}
		return Result{Package: "repro", Name: name, Iterations: iters, Metrics: m}
	}
	runs := []*Report{
		{Benchmarks: []Result{
			mk("BenchmarkB", 300, 10, nil),
			mk("BenchmarkA", 100, 50, map[string]float64{"cond-bytes": 1024}),
		}},
		{Benchmarks: []Result{
			mk("BenchmarkA", 120, 40, map[string]float64{"cond-bytes": 1024}),
		}},
		{Benchmarks: []Result{
			mk("BenchmarkA", 90, 70, map[string]float64{"cond-bytes": 1024}),
			mk("BenchmarkB", 500, 20, nil),
		}},
	}
	got := medianReport(runs)
	if len(got.Benchmarks) != 2 {
		t.Fatalf("merged %d benchmarks, want 2", len(got.Benchmarks))
	}
	a, b := got.Benchmarks[0], got.Benchmarks[1]
	if a.Name != "BenchmarkA" || b.Name != "BenchmarkB" {
		t.Fatalf("order %q, %q", a.Name, b.Name)
	}
	if a.Metrics["ns/op"] != 100 || a.Iterations != 50 {
		t.Errorf("A median = %v ns/op, %d iters; want 100, 50", a.Metrics["ns/op"], a.Iterations)
	}
	if a.Metrics["cond-bytes"] != 1024 {
		t.Errorf("A cond-bytes = %v, want 1024", a.Metrics["cond-bytes"])
	}
	// B appears in two runs: even count → midpoint.
	if b.Metrics["ns/op"] != 400 || b.Iterations != 15 {
		t.Errorf("B median = %v ns/op, %d iters; want 400, 15", b.Metrics["ns/op"], b.Iterations)
	}
}

// TestMachineRecord pins the report's machine object: parse takes the
// goos, goarch and cpu header lines and the GOMAXPROCS of the benchmark
// names' -N suffix (1 when they carry none), the file round-trips it, a
// baseline without it still loads, -regen's merge keeps it, and the delta
// table names both machines in one line exactly when they differ.
func TestMachineRecord(t *testing.T) {
	stream := `{"Action":"start","Package":"p"}
{"Action":"output","Package":"p","Output":"goos: linux\n"}
{"Action":"output","Package":"p","Output":"goarch: amd64\n"}
{"Action":"output","Package":"p","Output":"pkg: p\n"}
{"Action":"output","Package":"p","Output":"cpu: Test CPU @ 1.00GHz\n"}
{"Action":"output","Package":"p","Output":"BenchmarkA-4 \t 10\t 100 ns/op\n"}
{"Action":"output","Package":"q","Output":"goos: plan9\n"}
{"Action":"output","Package":"q","Output":"BenchmarkB/sub-4 \t 10\t 5 ns/op\n"}
{"Action":"pass","Package":"p"}
`
	var echo bytes.Buffer
	report, failed, err := parse(strings.NewReader(stream), &echo)
	if err != nil || failed {
		t.Fatal(err, failed)
	}
	want := machine{GOOS: "linux", GOARCH: "amd64", CPU: "Test CPU @ 1.00GHz", GOMAXPROCS: 4, GoVersion: runtime.Version()}
	if report.Machine == nil || *report.Machine != want {
		t.Fatalf("machine = %+v, want %+v", report.Machine, want)
	}
	if strings.Contains(echo.String(), "cpu:") {
		t.Error("header line echoed as a benchmark")
	}
	one, _, err := parse(strings.NewReader(`{"Action":"output","Package":"p","Output":"BenchmarkA \t 10\t 100 ns/op\n"}`+"\n"), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if one.Machine.GOMAXPROCS != 1 || one.Benchmarks[0].Name != "BenchmarkA" {
		t.Errorf("unsuffixed run: GOMAXPROCS %d, name %q; want 1, BenchmarkA", one.Machine.GOMAXPROCS, one.Benchmarks[0].Name)
	}

	dir := t.TempDir()
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/m.json", data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := readReport(dir + "/m.json")
	if err != nil {
		t.Fatal(err)
	}
	if back.Machine == nil || *back.Machine != want {
		t.Errorf("round trip machine = %+v, want %+v", back.Machine, want)
	}
	if err := os.WriteFile(dir+"/old.json", []byte(`{"benchmarks": [{"package": "p", "name": "BenchmarkA", "metrics": {"ns/op": 90}}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	old, err := readReport(dir + "/old.json")
	if err != nil || old.Machine != nil || len(old.Benchmarks) != 1 {
		t.Fatalf("baseline without a machine: %+v, %v", old, err)
	}
	if m := medianReport([]*Report{report, report, report}).Machine; m == nil || *m != want {
		t.Errorf("merged machine = %+v, want %+v", m, want)
	}

	line := "measured on"
	other := *report
	wider := want
	wider.GOMAXPROCS = 8
	other.Machine = &wider
	for _, tc := range []struct {
		name  string
		base  *Report
		lines int
	}{
		{"same machine", back, 0},
		{"other GOMAXPROCS", &other, 1},
		{"unrecorded baseline", old, 1},
	} {
		var out bytes.Buffer
		printDelta(&out, tc.base, report, 0, 0, 0, nil)
		if got := strings.Count(out.String(), line); got != tc.lines {
			t.Errorf("%s: %d machine lines, want %d:\n%s", tc.name, got, tc.lines, out.String())
		}
	}
	var out bytes.Buffer
	printDelta(&out, &other, report, 0, 0, 0, nil)
	if !strings.Contains(out.String(), "GOMAXPROCS 8") || !strings.Contains(out.String(), "GOMAXPROCS 4") {
		t.Errorf("machine line does not name both machines:\n%s", out.String())
	}
}
