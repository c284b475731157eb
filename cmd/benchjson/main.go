// Command benchjson converts a `go test -json -bench` event stream (test2json
// format, read from stdin) into a compact machine-readable benchmark report
// on stdout, for the CI perf-tracking artifact (BENCH_pr.json):
//
//	go test -json -run=NONE -bench=. -benchtime=100ms -benchmem ./... \
//	    | benchjson -baseline BENCH_main.json > BENCH_pr.json
//
// Every benchmark result line becomes one record carrying all reported
// metrics (ns/op, B/op, allocs/op, and any b.ReportMetric custom units)
// and the GOMAXPROCS of the -N suffix stripped from its name, so the
// results of a -cpu list stay apart: records are keyed by package, name
// and GOMAXPROCS. The report also records the machine it was measured on:
// the goos, goarch and cpu header lines go test prints, the first
// record's GOMAXPROCS, and the Go version. Benchmark output lines are
// echoed to stderr so the CI log keeps the human-readable smoke run, and
// the tool exits nonzero if any package failed — the conversion never
// masks a broken benchmark.
//
// With -baseline, the run is also compared against a committed report
// (BENCH_main.json at the repo root, regenerated each time a PR lands):
// a per-benchmark ns/op delta table goes to stderr, along with benchmarks
// that appear only in one of the two reports and a line naming both
// machines when the baseline was measured on another. A baseline record
// without a GOMAXPROCS, written before records carried one, matches the
// run's records of its package and name at any GOMAXPROCS. The deltas are
// informational — a short smoke run is noisy — but they make the perf
// trajectory visible on every PR instead of only inside downloaded
// artifacts.
//
// With -warn P (requires -baseline), benchmarks whose ns/op regressed by
// more than P percent are flagged with a REGRESSION marker and a summary
// WARNING line. The flag never changes the exit code.
//
// With -fail P (requires -baseline), the same comparison becomes a gate
// for the benchmarks named by -faillist: a comma-separated list of name
// substrings selecting the low-variance benchmarks (by default the
// GlauberStep, CondWeights, CondLookup, BatchSweep, BatchLuby and
// BatchMetropolis kernels, whose straight-line inner loops are stable once
// the smoke run amortizes a few hundred iterations, plus the
// DriverConverge drive and the RhatCheck driver check). An allowlisted
// benchmark regressing by more than P percent is marked FAIL and the tool
// exits nonzero after the full report and delta table are written.
// Benchmarks outside the allowlist keep the warn-only treatment.
//
// With -failallocs P (requires -baseline), the allowlisted benchmarks are
// additionally gated on allocs/op: a regression above P percent — or any
// growth at all from a zero-alloc baseline — is marked FAIL and fails the
// run. Allocation counts are far more stable than wall time on a shared
// runner, so this catches a hot loop that silently starts allocating even
// when the ns/op noise would hide it.
//
// With -regen, the tool stops reading stdin and instead regenerates the
// committed baseline itself, encoding the protocol every BENCH_main.json
// refresh has followed: run the full suite three times at 100ms per
// benchmark and -cpu 2, and keep the per-benchmark, per-metric median (a
// median of three beats one lucky run on a noisy runner; the odd count
// means the median is always a really-measured value). The one core count
// is the CI smoke run's, so every baseline record carries GOMAXPROCS 2
// and matches the gate's runs:
//
//	go build ./cmd/benchjson && ./benchjson -regen -o BENCH_main.json
//
// Without -o the merged report goes to stdout like the streaming mode.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// The baseline regeneration protocol: three full suite runs at 100ms per
// benchmark and GOMAXPROCS 2 (the core count the CI bench-json step
// passes with -cpu), merged per benchmark and per metric by median.
const (
	regenRuns      = 3
	regenBenchtime = "100ms"
	regenCPU       = "2"
)

// event is the subset of the test2json stream the tool consumes.
type event struct {
	Action  string `json:"Action"`
	Package string `json:"Package"`
	Output  string `json:"Output"`
}

// Result is one benchmark measurement. GOMAXPROCS is zero in baselines
// written before records carried it.
type Result struct {
	Package    string             `json:"package"`
	Name       string             `json:"name"`
	GOMAXPROCS int                `json:"gomaxprocs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// key identifies a result within a report: package, name and GOMAXPROCS.
func (r Result) key() string {
	return fmt.Sprintf("%s %s %d", r.Package, r.Name, r.GOMAXPROCS)
}

// label names a result as go test does, with the -N suffix of a
// GOMAXPROCS above 1.
func (r Result) label() string {
	if r.GOMAXPROCS > 1 {
		return fmt.Sprintf("%s-%d", r.Name, r.GOMAXPROCS)
	}
	return r.Name
}

// sortResults orders results by package, name and GOMAXPROCS.
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.GOMAXPROCS < b.GOMAXPROCS
	})
}

// Report is the artifact schema. Machine is nil in baselines written
// before the record existed.
type Report struct {
	Machine    *machine `json:"machine,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// machine is the host a report was measured on: the goos, goarch and cpu
// header lines of go test's output, the first record's GOMAXPROCS, and
// the Go version.
type machine struct {
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"go_version"`
}

// label describes the machine in one phrase, or says there is no record.
func (m *machine) label() string {
	if m == nil {
		return "an unrecorded machine"
	}
	return fmt.Sprintf("%s/%s, cpu %q, GOMAXPROCS %d, %s", m.GOOS, m.GOARCH, m.CPU, m.GOMAXPROCS, m.GoVersion)
}

// benchLine matches the start of a benchmark result line; the tail is
// parsed as alternating value/unit pairs.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// gomaxprocsSuffix matches the "-8" style procs suffix testing appends to
// benchmark names; parseBenchLine moves it into the record's GOMAXPROCS.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	baseline := flag.String("baseline", "", "committed report to diff against (per-benchmark ns/op deltas on stderr)")
	warn := flag.Float64("warn", 0, "flag ns/op regressions above this percentage vs the baseline (0 = off; never fails the run)")
	failPct := flag.Float64("fail", 0, "exit nonzero when an allowlisted benchmark (see -faillist) regresses ns/op above this percentage vs the baseline (0 = off)")
	failAllocPct := flag.Float64("failallocs", 0, "exit nonzero when an allowlisted benchmark regresses allocs/op above this percentage vs the baseline (any growth from a zero-alloc baseline gates; 0 = off)")
	faillist := flag.String("faillist", "GlauberStep,CondWeights,CondLookup,BatchSweep,BatchLuby,BatchMetropolis,DriverConverge,RhatCheck",
		"comma-separated benchmark-name substrings gated by -fail and -failallocs; others stay warn-only")
	regen := flag.Bool("regen", false, "regenerate the baseline: run the suite "+strconv.Itoa(regenRuns)+"× at -benchtime="+regenBenchtime+" -cpu "+regenCPU+" and write the per-metric median report (ignores stdin)")
	outPath := flag.String("o", "", "with -regen: write the merged report to this file instead of stdout")
	flag.Parse()
	if *regen {
		if err := regenerate(*outPath); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		return
	}
	report, failed, err := parse(os.Stdin, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(2)
	}
	var gated []string
	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			// A missing or unreadable baseline must not fail the run: the
			// delta is informational and the baseline only exists from the
			// PR that introduced it onward.
			fmt.Fprintln(os.Stderr, "benchjson: no baseline diff:", err)
		} else {
			gated = printDelta(os.Stderr, base, report, *warn, *failPct, *failAllocPct, splitList(*faillist))
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "benchjson: one or more packages failed")
		os.Exit(1)
	}
	if len(gated) > 0 {
		os.Exit(1)
	}
}

// regenerate runs the baseline protocol: regenRuns full suite runs at
// regenBenchtime each and -cpu regenCPU, merged by medianReport and
// written to path (stdout when path is empty). Each run's result lines
// are echoed to stderr so the regeneration stays observable; a failing
// package aborts the whole regeneration — a baseline must never be built
// from a partial run.
func regenerate(path string) error {
	reports := make([]*Report, 0, regenRuns)
	for i := 1; i <= regenRuns; i++ {
		fmt.Fprintf(os.Stderr, "benchjson: regen run %d/%d (go test -bench=. -benchtime=%s -cpu %s)\n", i, regenRuns, regenBenchtime, regenCPU)
		cmd := exec.Command("go", "test", "-json", "-run=NONE", "-bench=.",
			"-benchtime="+regenBenchtime, "-cpu", regenCPU, "-benchmem", "./...")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		report, failed, perr := parse(stdout, os.Stderr)
		werr := cmd.Wait()
		if perr != nil {
			return perr
		}
		if failed || werr != nil {
			return fmt.Errorf("regen run %d/%d failed (go test: %v)", i, regenRuns, werr)
		}
		reports = append(reports, report)
	}
	merged := medianReport(reports)
	out := os.Stdout
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(merged)
}

// medianReport merges the runs per benchmark (package, name and
// GOMAXPROCS): each metric becomes the median of the values the runs
// reported for it, and the iteration count likewise. A benchmark missing
// from some runs keeps the median of the runs that did report it, so a
// flaky sub-benchmark cannot silently drop a metric from the baseline.
func medianReport(runs []*Report) *Report {
	type acc struct {
		iters   []int64
		metrics map[string][]float64
	}
	byKey := make(map[string]*acc)
	protos := make(map[string]Result)
	var order []string
	for _, run := range runs {
		for _, r := range run.Benchmarks {
			k := r.key()
			a, ok := byKey[k]
			if !ok {
				a = &acc{metrics: make(map[string][]float64)}
				byKey[k] = a
				protos[k] = r
				order = append(order, k)
			}
			a.iters = append(a.iters, r.Iterations)
			for unit, v := range r.Metrics {
				a.metrics[unit] = append(a.metrics[unit], v)
			}
		}
	}
	merged := &Report{Benchmarks: make([]Result, 0, len(order))}
	if len(runs) > 0 {
		merged.Machine = runs[0].Machine
	}
	for _, k := range order {
		a, p := byKey[k], protos[k]
		res := Result{
			Package:    p.Package,
			Name:       p.Name,
			GOMAXPROCS: p.GOMAXPROCS,
			Iterations: medianInt64(a.iters),
			Metrics:    make(map[string]float64, len(a.metrics)),
		}
		for unit, vs := range a.metrics {
			res.Metrics[unit] = medianFloat64(vs)
		}
		merged.Benchmarks = append(merged.Benchmarks, res)
	}
	sortResults(merged.Benchmarks)
	return merged
}

func medianFloat64(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 0 {
		return (s[mid-1] + s[mid]) / 2
	}
	return s[mid]
}

func medianInt64(vs []int64) int64 {
	s := append([]int64(nil), vs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := len(s) / 2
	if len(s)%2 == 0 {
		return (s[mid-1] + s[mid]) / 2
	}
	return s[mid]
}

// splitList parses a comma-separated allowlist, dropping empty entries so
// a trailing comma or an empty -faillist disables the gate cleanly.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// readReport loads a previously written artifact.
func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// printDelta writes the per-benchmark ns/op comparison of cur against
// base: one line per benchmark present in both, plus the names only one
// report has. Benchmarks are keyed by package, name (including sub-
// benchmark paths) and GOMAXPROCS, and a base record without a GOMAXPROCS
// stands for its package and name at every GOMAXPROCS. With warnPct > 0,
// deltas above that percentage get a REGRESSION marker and a trailing
// WARNING summary (informational only — the exit code is unchanged).
// With failPct > 0, benchmarks whose name
// contains any of the allow substrings are instead gated at that
// threshold: they get a FAIL marker, a trailing FAIL summary, and are
// returned so the caller can turn them into a nonzero exit. With
// failAllocPct > 0 the allowlisted benchmarks are also gated on
// allocs/op (any growth from a zero-alloc baseline gates).
func printDelta(w io.Writer, base, cur *Report, warnPct, failPct, failAllocPct float64, allow []string) []string {
	baseBy := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		baseBy[r.key()] = r
	}
	match := func(r Result) (Result, bool) {
		if b, ok := baseBy[r.key()]; ok {
			return b, true
		}
		r.GOMAXPROCS = 0
		b, ok := baseBy[r.key()]
		return b, ok
	}
	allowed := func(name string) bool {
		for _, sub := range allow {
			if strings.Contains(name, sub) {
				return true
			}
		}
		return false
	}
	fmt.Fprintln(w, "benchjson: ns/op vs baseline (smoke run)")
	if (base.Machine == nil) != (cur.Machine == nil) || base.Machine != nil && *base.Machine != *cur.Machine {
		fmt.Fprintf(w, "benchjson: the baseline was measured on %s, this run on %s\n", base.Machine.label(), cur.Machine.label())
	}
	seen := make(map[string]bool, len(cur.Benchmarks))
	var regressed, gated, gatedAllocs []string
	for _, r := range cur.Benchmarks {
		b, ok := match(r)
		if !ok {
			fmt.Fprintf(w, "  new      %-60s %12.0f ns/op\n", r.label(), r.Metrics["ns/op"])
			continue
		}
		seen[b.key()] = true
		old, oldOK := b.Metrics["ns/op"]
		now, nowOK := r.Metrics["ns/op"]
		if !oldOK || !nowOK || old == 0 {
			continue
		}
		pct := 100 * (now - old) / old
		mark := ""
		switch {
		case failPct > 0 && pct > failPct && allowed(r.Name):
			mark = "  FAIL"
			gated = append(gated, r.label())
		case warnPct > 0 && pct > warnPct:
			mark = "  REGRESSION"
			regressed = append(regressed, r.label())
		}
		if failAllocPct > 0 && allowed(r.Name) {
			oldA, okA := b.Metrics["allocs/op"]
			nowA, okN := r.Metrics["allocs/op"]
			if okA && okN {
				bad := oldA == 0 && nowA > 0
				if oldA > 0 && 100*(nowA-oldA)/oldA > failAllocPct {
					bad = true
				}
				if bad {
					mark += fmt.Sprintf("  FAIL %.0f -> %.0f allocs/op", oldA, nowA)
					gatedAllocs = append(gatedAllocs, r.label())
				}
			}
		}
		fmt.Fprintf(w, "  %+7.1f%% %-60s %12.0f -> %.0f ns/op%s\n", pct, r.label(), old, now, mark)
	}
	for _, b := range base.Benchmarks {
		if !seen[b.key()] {
			fmt.Fprintf(w, "  missing  %-60s (was %.0f ns/op)\n", b.label(), b.Metrics["ns/op"])
		}
	}
	if len(regressed) > 0 {
		fmt.Fprintf(w, "benchjson: WARNING: %d benchmark(s) regressed > %.0f%% ns/op vs baseline: %s\n",
			len(regressed), warnPct, strings.Join(regressed, ", "))
	}
	if len(gated) > 0 {
		fmt.Fprintf(w, "benchjson: FAIL: %d allowlisted benchmark(s) regressed > %.0f%% ns/op vs baseline: %s\n",
			len(gated), failPct, strings.Join(gated, ", "))
	}
	if len(gatedAllocs) > 0 {
		fmt.Fprintf(w, "benchjson: FAIL: %d allowlisted benchmark(s) regressed > %.0f%% allocs/op vs baseline: %s\n",
			len(gatedAllocs), failAllocPct, strings.Join(gatedAllocs, ", "))
	}
	return append(gated, gatedAllocs...)
}

// parse consumes the event stream, echoing benchmark-relevant output lines
// to echo, and reports whether any package failed. Each record carries the
// GOMAXPROCS of its line. The report's machine takes the first goos,
// goarch and cpu header lines, the GOMAXPROCS of the first benchmark line,
// and this binary's Go version.
//
// Output events are reassembled into lines per package before matching:
// `go test` prints a benchmark's name first and appends the numbers only
// when it finishes, so for any benchmark that is slow enough test2json
// flushes the two halves as separate Output events — treating each event
// as a complete line silently drops every slow benchmark from the report.
func parse(r io.Reader, echo io.Writer) (*Report, bool, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	m := &machine{GoVersion: runtime.Version()}
	report := &Report{Machine: m, Benchmarks: []Result{}}
	failed := false
	carry := make(map[string]string)
	header := map[string]*string{"goos": &m.GOOS, "goarch": &m.GOARCH, "cpu": &m.CPU}
	handleLine := func(pkg, line string) {
		trimmed := strings.TrimSpace(line)
		if key, val, ok := strings.Cut(trimmed, ": "); ok && header[key] != nil {
			if *header[key] == "" {
				*header[key] = val
			}
			return
		}
		res, ok := parseBenchLine(pkg, trimmed)
		if !ok {
			return
		}
		if m.GOMAXPROCS == 0 {
			m.GOMAXPROCS = res.GOMAXPROCS
		}
		fmt.Fprintf(echo, "%s\t%s\n", pkg, line)
		report.Benchmarks = append(report.Benchmarks, res)
	}
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev event
		if err := json.Unmarshal(line, &ev); err != nil {
			// Tolerate stray non-JSON lines (e.g. toolchain notes).
			continue
		}
		switch ev.Action {
		case "fail":
			failed = true
		case "output":
			text := carry[ev.Package] + ev.Output
			for {
				i := strings.IndexByte(text, '\n')
				if i < 0 {
					break
				}
				handleLine(ev.Package, text[:i])
				text = text[i+1:]
			}
			carry[ev.Package] = text
		}
	}
	for pkg, rest := range carry {
		if rest != "" {
			handleLine(pkg, rest)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, failed, err
	}
	sortResults(report.Benchmarks)
	return report, failed, nil
}

// parseBenchLine decodes one "BenchmarkX-8  20  123 ns/op  4 B/op ..."
// result line: the name without its -N suffix, and N as the GOMAXPROCS
// (1 when the name has none, as go test omits -1).
func parseBenchLine(pkg, line string) (Result, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(m[2], 10, 64)
	if err != nil {
		return Result{}, false
	}
	fields := strings.Fields(m[3])
	if len(fields) == 0 || len(fields)%2 != 0 {
		return Result{}, false
	}
	metrics := make(map[string]float64, len(fields)/2)
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		metrics[fields[i+1]] = v
	}
	procs := 1
	if n, err := strconv.Atoi(strings.TrimPrefix(gomaxprocsSuffix.FindString(m[1]), "-")); err == nil {
		procs = n
	}
	return Result{
		Package:    pkg,
		Name:       gomaxprocsSuffix.ReplaceAllString(m[1], ""),
		GOMAXPROCS: procs,
		Iterations: iters,
		Metrics:    metrics,
	}, true
}
