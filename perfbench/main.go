// Command perfbench measures what a caller of run.Drive pays to reach
// converged chains. One closed-loop client sends a request, waits for its
// Report, checks the output, and sends the next, for a fixed time. With
// --trace 0 it prints the end-to-end metrics; with --trace 1 it serves
// every request twice, through run.Drive and through a traced mirror of
// it that must reproduce its Report exactly, and prints the per-layer
// split. README.md lists the workloads and every metric.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/gibbs"
)

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	commit   string
	// outDir receives the result, request and span files.
	outDir string
}

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name, or all")
	fs.Int64Var(&o.seed, "seed", 0, "seed of the request list")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds of closed-loop requests")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.commit, "commit", "unknown", "commit of the measured sources")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.workload == "":
		return o, errors.New("--workload is required")
	case !(o.seconds > 0):
		return o, errors.New("--seconds must be positive")
	case trace != 0 && trace != 1:
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	o.outDir = filepath.Join(o.root, ".bench_build", "results")
	return o, nil
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		w, err := newWorkload(name, o.root, fullSize)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		rep, err := measure(w, o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		if err := rep.write(o.outDir); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		rep.print(stdout)
		if len(names) == 1 {
			final = rep.Result
			continue
		}
		final.Correct = final.Correct && rep.Result.Correct
		final.Attempted += rep.Result.Attempted
		final.Failed += rep.Result.Failed
		for k, v := range rep.Result.Metrics {
			final.Metrics[name+"/"+k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance says where and how a result was measured.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	Workers    int     `json:"workers"`
	Chains     int     `json:"chains"`
	Setups     int     `json:"setups"`
	// Requests is the number of requests served; the tail percentile is the
	// highest one with at least TailBeyond requests beyond it among
	// TailSamples timed requests.
	Requests       int     `json:"requests"`
	TailPercentile float64 `json:"tail_percentile"`
	TailSamples    int     `json:"tail_samples"`
	TailBeyond     int     `json:"tail_beyond"`
	// Failures counts failed requests by reason.
	Failures map[string]int `json:"failures,omitempty"`
	// Pooled holds the per-document output checks of the corpus workload.
	Pooled []pooledCheck `json:"pooled_checks,omitempty"`
}

// runReport is everything one workload run produces.
type runReport struct {
	Result     result     `json:"result"`
	Provenance provenance `json:"provenance"`
	recs       []record
	spans      []span
}

// metricSpec is one reported metric: its name, unit, and which way is
// better.
type metricSpec struct{ name, unit, better string }

// endToEnd are the metrics of an untraced run and perLayer those of a
// traced run, in print order; BENCHMARK.json lists the same ones.
var (
	endToEnd = []metricSpec{
		{"setup_s", "s", "lower"},
		{"drive_s_p50", "s", "lower"},
		{"drive_s_tail", "s", "lower"},
		{"chain_sweeps_per_s", "1/s", "higher"},
		{"ess_per_s", "1/s", "higher"},
		{"sweeps_to_converge", "count", "lower"},
		{"ok_frac", "frac", "higher"},
		{"alloc_mb_per_drive", "MB", "lower"},
		{"engine_heap_mb", "MB", "lower"},
	}
	perLayer = []metricSpec{
		{"spec.parse_s", "s", "lower"},
		{"spec.build_s", "s", "lower"},
		{"gibbs.compile_s", "s", "lower"},
		{"gibbs.plan_s", "s", "lower"},
		{"gibbs.cond_build_s", "s", "lower"},
		{"sampler.create_s", "s", "lower"},
		{"gibbs.cond_coverage", "frac", "higher"},
		{"gibbs.cond_mb", "MB", "lower"},
		{"run.request_s", "s", "lower"},
		{"run.request_setup_frac", "frac", "lower"},
		{"sampler.stage_create_s", "s", "lower"},
		{"run.handoff_s", "s", "lower"},
		{"sampler.run_s", "s", "lower"},
		{"gibbs.updates_per_s", "1/s", "higher"},
		{"psample.accept_ratio", "frac", "higher"},
		{"psample.stages_per_sweep", "count", "lower"},
		{"psample.sched_s_per_stage", "s", "lower"},
		{"psample.scaling_eff", "frac", "higher"},
		{"sampler.newrhat_s", "s", "lower"},
		{"sampler.rhat_mb", "MB", "lower"},
		{"sampler.observe_s", "s", "lower"},
		{"sampler.worst_s", "s", "lower"},
		{"sampler.split_s", "s", "lower"},
		{"sampler.ess_s", "s", "lower"},
		{"run.checks", "count", "lower"},
		{"run.escalations", "count", "lower"},
		{"run.self_s", "s", "lower"},
		{"run.trace_overhead_s", "s", "lower"},
	}
)

// emit attaches units to the measured values, in the order of specs. Every
// listed metric must have been measured and be finite; nothing else is
// reported.
func emit(specs []metricSpec, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := vals[s.name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("metric %s is %v", s.name, v)
		}
		out[s.name] = metric{v, s.unit}
	}
	return out, nil
}

// print writes a human-readable table and the provenance line.
func (r *runReport) print(out io.Writer) {
	fmt.Fprintf(out, "# %s seed=%d trace=%v requests=%d correct=%v failed=%d\n",
		r.Provenance.Workload, r.Provenance.Seed, r.Provenance.Trace, r.Provenance.Requests, r.Result.Correct, r.Result.Failed)
	specs := endToEnd
	if r.Provenance.Trace {
		specs = perLayer
	}
	for _, s := range specs {
		m := r.Result.Metrics[s.name]
		fmt.Fprintf(out, "%-26s %14.6g %s\n", s.name, m.Value, m.Unit)
	}
	for reason, n := range r.Provenance.Failures {
		fmt.Fprintf(out, "failed %d× %s\n", n, reason)
	}
	if line, err := json.Marshal(map[string]provenance{"provenance": r.Provenance}); err == nil {
		fmt.Fprintln(out, string(line))
	}
}

// write stores the result with its provenance, and in a traced run the
// spans, under dir.
func (r *runReport) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "trace0"
	if r.Provenance.Trace {
		mode = "trace1"
	}
	base := filepath.Join(dir, r.Provenance.Workload+"-"+mode)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return err
	}
	var rb strings.Builder
	rb.WriteString("req,doc,at_s,setup_s,seconds,sweeps,ess,fail\n")
	for _, rec := range r.recs {
		fmt.Fprintf(&rb, "%d,%d,%.6f,%.9f,%.9f,%d,%.6g,%q\n", rec.id, rec.doc, rec.at, rec.setup, rec.seconds, rec.sweeps, rec.ess, rec.fail)
	}
	if err := os.WriteFile(base+"-requests.csv", []byte(rb.String()), 0o644); err != nil {
		return err
	}
	if r.spans == nil {
		return nil
	}
	var b strings.Builder
	b.WriteString("req,span,parent,name,start_ns,end_ns\n")
	for i, s := range r.spans {
		fmt.Fprintf(&b, "%d,%d,%d,%s,%d,%d\n", s.req, i, s.parent, s.name, s.start, s.end)
	}
	return os.WriteFile(base+"-spans.csv", []byte(b.String()), 0o644)
}

// measure runs one workload: the retained-heap set-ups, one warm-up request
// per document, the timed closed loop of set-up and request, and in a
// traced run the probes.
func measure(w *workload, o options) (*runReport, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	heapMB, cond, err := setupHeap(w)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if !w.perRequestSetup {
		if w.shared, err = loadDoc(nil, w.docs[0].data); err != nil {
			return nil, err
		}
	}
	// Warm-up: one request per document, untimed and unchecked, so lazy
	// set-up and the heap's first growth land outside the measurement.
	for i := range w.docs {
		r := w.requestAt(^o.seed, i)
		if _, err := w.serve(r); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if o.trace {
			if _, err := w.serveTraced(tr, r); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			tr.spans = tr.spans[:0]
		}
	}

	var (
		recs          []record
		setupSecs     []float64
		traced        []served
		tracedSeconds []float64
		pools         = make([]pool, len(w.docs))
	)
	start := nowNanos()
	deadline := start + int64(o.seconds*1e9)
	for i := 0; i == 0 || nowNanos() < deadline; i++ {
		// A fresh set-up between requests spreads the set-up samples over
		// the whole run, like the requests'.
		secs, err := timedSetup(w, tr, -1-i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, secs)
		r := w.requestAt(o.seed, i)
		at := float64(nowNanos()-start) / 1e9
		var u, t served
		var uerr, terr error
		if !o.trace {
			u, uerr = w.serve(r)
		} else if i%2 == 0 {
			// Alternate which form goes first, so neither always runs on the
			// heap the other just left behind.
			u, uerr = w.serve(r)
			t, terr = w.serveTraced(tr, r)
		} else {
			t, terr = w.serveTraced(tr, r)
			u, uerr = w.serve(r)
		}
		rec := record{id: r.id, doc: r.doc, at: at, setup: secs}
		switch {
		case uerr != nil:
			rec.fail = "drive error: " + uerr.Error()
		case terr != nil:
			rec.fail = "traced drive error: " + terr.Error()
		default:
			rec.seconds = u.seconds
			rec.sweeps = u.rep.Sweeps
			rec.ess = u.rep.ESS
			rec.chains = u.final.Chains()
			rec.allocMB = u.allocMB
			rec.fail = w.verdict(u)
			if o.trace {
				if !sameReport(u.rep, t.rep) || !sameLattice(u.final.Lattice(), t.final.Lattice()) {
					rec.fail = "traced mirror diverged from run.Drive"
				}
				traced = append(traced, t)
				tracedSeconds = append(tracedSeconds, t.seconds)
			}
			if w.perRequestSetup {
				pools[r.doc].add(u.final.Lattice())
			}
		}
		recs = append(recs, rec)
	}

	badDocs := map[int]string{}
	var pooled []pooledCheck
	for d := range w.docs {
		if w.docs[d].marginals == nil {
			continue
		}
		pc, err := pools[d].check(w.docs[d].name, w.docs[d].marginals)
		if err != nil {
			return nil, err
		}
		pooled = append(pooled, pc)
		if !pc.passed() {
			badDocs[d] = fmt.Sprintf("%s: vertex %d marginal TV %.4f > envelope %.4f over %d samples",
				pc.Doc, pc.Vertex, pc.TV, pc.Envelope, pc.Samples)
		}
	}
	failed := countFailed(recs, badDocs)

	var driveSecs, chainSweeps, essRate, sweeps, allocMB []float64
	failures := map[string]int{}
	for _, rec := range recs {
		if rec.fail != "" {
			failures[rec.fail]++
		} else if badDocs[rec.doc] != "" {
			failures["pooled output check: "+badDocs[rec.doc]]++
		}
		if rec.seconds <= 0 {
			continue
		}
		driveSecs = append(driveSecs, rec.seconds)
		chainSweeps = append(chainSweeps, float64(rec.chains*rec.sweeps)/rec.seconds)
		if !math.IsNaN(rec.ess) {
			essRate = append(essRate, rec.ess/rec.seconds)
		}
		sweeps = append(sweeps, float64(rec.sweeps))
		allocMB = append(allocMB, rec.allocMB)
	}
	tailV, tailPct, _ := tail(driveSecs, tailBeyond)

	rep := &runReport{
		Result: result{
			Attempted: len(recs),
			Failed:    failed,
		},
		Provenance: provenance{
			Workload:       w.name,
			Seed:           o.seed,
			Seconds:        o.seconds,
			Trace:          o.trace,
			CPU:            cpuModel(),
			NProc:          runtime.NumCPU(),
			GOMAXPROCS:     runtime.GOMAXPROCS(0),
			GoVersion:      runtime.Version(),
			Commit:         o.commit,
			SourceHash:     sourceHash(o.root),
			Workers:        w.policy.Workers,
			Chains:         w.policy.Chains,
			Setups:         len(setupSecs),
			Requests:       len(recs),
			TailPercentile: tailPct,
			TailSamples:    len(driveSecs),
			TailBeyond:     tailBeyond,
			Failures:       failures,
			Pooled:         pooled,
		},
	}
	rep.recs = recs
	m := map[string]float64{}
	if !o.trace {
		m["setup_s"] = median(setupSecs)
		m["drive_s_p50"] = median(driveSecs)
		m["drive_s_tail"] = tailV
		m["chain_sweeps_per_s"] = median(chainSweeps)
		m["ess_per_s"] = median(essRate)
		m["sweeps_to_converge"] = median(sweeps)
		m["ok_frac"] = okFrac(len(recs), failed)
		m["alloc_mb_per_drive"] = median(allocMB)
		m["engine_heap_mb"] = median(heapMB)
	} else {
		if err := layerMetrics(m, w, cond, tr.spans, traced, driveSecs, tracedSeconds); err != nil {
			return nil, err
		}
		rep.spans = tr.spans
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	if rep.Result.Metrics, err = emit(specs, m); err != nil {
		return nil, err
	}
	rep.Result.Correct = failed == 0
	return rep, nil
}

// setupLayers maps the set-up spans' names to their metrics.
var setupLayers = map[string]string{
	"spec.parse":       "spec.parse_s",
	"spec.build":       "spec.build_s",
	"gibbs.compile":    "gibbs.compile_s",
	"gibbs.plan":       "gibbs.plan_s",
	"gibbs.cond_build": "gibbs.cond_build_s",
	"sampler.create":   "sampler.create_s",
}

// driveLayers maps the drive requests' span names to their metrics. The
// set-up spans inside a corpus request are reported together, as
// run.request_setup_frac.
var driveLayers = map[string]string{
	"sampler.create":  "sampler.stage_create_s",
	"run.handoff":     "run.handoff_s",
	"sampler.run":     "sampler.run_s",
	"sampler.newrhat": "sampler.newrhat_s",
	"sampler.observe": "sampler.observe_s",
	"sampler.worst":   "sampler.worst_s",
	"sampler.split":   "sampler.split_s",
	"sampler.ess":     "sampler.ess_s",
}

// layerMetrics derives the per-layer metrics of a traced run. Layer times
// are mean self seconds per request, so that they add up to the mean
// traced request (run.request_s); ratios and rates are medians of
// per-drive values.
func layerMetrics(m map[string]float64, w *workload, cond gibbs.CondStats, spans []span, traced []served, untracedSecs, tracedSecs []float64) error {
	if err := checkNesting(spans); err != nil {
		return err
	}
	setupMeans, _ := layerSeconds(spans, func(req int32) bool { return req < 0 })
	for name, key := range setupLayers {
		m[key] = setupMeans[name]
	}
	driveMeans, requests := layerSeconds(spans, func(req int32) bool { return req >= 0 })
	if requests == 0 || len(traced) == 0 {
		return errors.New("no traced request completed")
	}
	sum, requestSetup := 0.0, 0.0
	for name, v := range driveMeans {
		sum += v
		if key, ok := driveLayers[name]; ok {
			m[key] = v
		} else if _, ok := setupLayers[name]; ok {
			requestSetup += v
		}
	}
	requestS := mean(tracedSecs)
	if math.Abs(sum-requestS) > 1e-9*max(requestS, 1) {
		return fmt.Errorf("layer self times sum to %g s per request, traced requests take %g s", sum, requestS)
	}
	m["run.request_s"] = requestS
	m["run.self_s"] = driveMeans["run.drive"] + driveMeans["request"]
	m["run.request_setup_frac"] = requestSetup / requestS
	m["run.trace_overhead_s"] = median(tracedSecs) - median(untracedSecs)

	engineSecs := map[int32]float64{}
	self := selfTimes(spans)
	for i, s := range spans {
		if s.req >= 0 && s.name == "sampler.run" {
			engineSecs[s.req] += float64(self[i]) / 1e9
		}
	}
	var updRate, accept, perSweep, rhatMB, checks, escal []float64
	for _, t := range traced {
		var useful, attempted int64
		stageSweeps, weighted := 0, 0
		for _, st := range t.stats.stages {
			useful += st.useful
			attempted += st.attempted
			weighted += st.stagesPerRound * st.sweepRounds * st.sweeps
			stageSweeps += st.sweeps
		}
		if e := engineSecs[t.req]; e > 0 {
			updRate = append(updRate, float64(useful)/e)
		}
		if attempted > 0 {
			accept = append(accept, float64(useful)/float64(attempted))
		}
		if stageSweeps > 0 {
			perSweep = append(perSweep, float64(weighted)/float64(stageSweeps))
		}
		rhatMB = append(rhatMB, float64(t.stats.rhatBytes)/1e6)
		checks = append(checks, float64(t.stats.checks))
		escal = append(escal, float64(t.stats.escalations()))
	}
	m["gibbs.updates_per_s"] = median(updRate)
	m["psample.accept_ratio"] = median(accept)
	m["psample.stages_per_sweep"] = mean(perSweep)
	m["sampler.rhat_mb"] = mean(rhatMB)
	m["run.checks"] = mean(checks)
	m["run.escalations"] = mean(escal)
	m["gibbs.cond_coverage"] = float64(cond.Cached) / float64(max(cond.Total, 1))
	m["gibbs.cond_mb"] = float64(cond.Bytes) / 1e6

	// The probes run on the workload's first-stage dynamic: on the shared
	// instance, or on the largest corpus document.
	in := w.shared
	if in == nil {
		big := 0
		for d := range w.docs {
			if len(w.docs[d].marginals) > len(w.docs[big].marginals) {
				big = d
			}
		}
		var err error
		if in, err = loadDoc(nil, w.docs[big].data); err != nil {
			return err
		}
	}
	dyn := w.policy.Stages[0].Dynamic
	sched, err := schedPerStage(w.policy.Workers, traced[0].stats.stages[0].stagesPerRound)
	if err != nil {
		return err
	}
	m["psample.sched_s_per_stage"] = sched
	eff, err := scalingEff(in, dyn)
	if err != nil {
		return err
	}
	m["psample.scaling_eff"] = eff
	return nil
}

// cpuModel reads the CPU model name, "unknown" where the system does not
// say.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash hashes the repository's Go sources, module files and corpus,
// so a result names the code it measured even where there is no VCS.
// Hidden directories (build output, VCS metadata) are skipped.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".json", ".sh":
		default:
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
