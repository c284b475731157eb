// Command lsample draws a sample from a Gibbs model using the distributed
// samplers of the paper: the exact local-JVV sampler (Theorem 4.2), the
// approximate sequential sampler (Theorem 3.2), or any dynamics from the
// internal/sampler registry (glauber, luby, metropolis, chromatic) run on
// its in-process engine. -chains sets B, the number of independent chains
// the batched dynamics (luby, metropolis, chromatic) advance in lockstep
// over one shared compiled engine; the default -chains 1 is their
// single-chain sampler. -cpuprofile and -memprofile write pprof profiles
// of the whole run.
//
// Instances are declarative: -spec loads a schema document (see
// internal/spec and testdata/corpus/), and the legacy -model/-graph/-n
// flags synthesize the equivalent document — both are compiled by the same
// loader, so a spec file and the flags that describe the same instance
// produce bit-identical sample streams for the same seed.
//
// Adaptive stopping: -converge 'rhat<1.05' and/or -min-ess route the run
// through the internal/run driver — the chains advance in sweep-equivalent
// chunks and stop as soon as the cross-chain diagnostics meet the targets
// instead of exhausting the fixed budget (-sweeps/-rounds become the
// budget ceiling). -algo then accepts a comma-separated escalation list
// ("chromatic,metropolis"): when a stage's acceptance rate falls below
// -min-rate the driver hands the chains to the next dynamic. -rhat alone
// reports the diagnostics after the full budget, through the same driver.
//
// Usage:
//
//	lsample -model hardcore -graph cycle -n 24 -lambda 1.0 -sampler jvv
//	lsample -spec testdata/corpus/hardcore-tree15-below.json -algo glauber
//	lsample -model coloring -graph tree -n 40 -q 5
//	lsample -model matching -graph grid -n 16 -lambda 2
//	lsample -model hardcore -graph torus -n 16 -algo luby -rounds 200
//	lsample -model coloring -graph grid -n 10 -q 6 -algo metropolis
//	lsample -model ising -graph cycle -n 64 -beta 0.8 -algo glauber -sweeps 50
//	lsample -model hardcore -graph torus -n 24 -algo chromatic -chains 32
//	lsample -model ising -graph torus -n 16 -algo metropolis -chains 16 -rhat
//	lsample -spec testdata/corpus/hardcore-tree15-below.json -algo chromatic \
//	    -converge 'rhat<1.05'
//	lsample -model hardcore -graph torus -n 16 -lambda 3 \
//	    -algo metropolis,chromatic -min-rate 0.5 -converge 'rhat<1.1' -min-ess 200
//	lsample -model hardcore -graph torus -n 24 -algo chromatic -chains 64 \
//	    -sweeps 500 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/decay"
	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
	adaptive "repro/internal/run"
	"repro/internal/sampler"
	"repro/internal/spec"
	"repro/internal/state"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		// The state container validates the lattice shape (q bounds, chain
		// count) once at construction; surface its typed error with the
		// flags that produced it instead of a bare engine trace.
		var de *state.DomainError
		if errors.As(err, &de) {
			fmt.Fprintln(os.Stderr, "lsample: the requested model/chain shape is not representable:", err)
			fmt.Fprintln(os.Stderr, "lsample: check -q, -chains, and the model parameters")
			os.Exit(1)
		}
		// Schema defects carry their document path; point at the field.
		var se *spec.Error
		if errors.As(err, &se) {
			fmt.Fprintln(os.Stderr, "lsample: invalid instance spec:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "lsample:", err)
		os.Exit(1)
	}
}

type options struct {
	specPath string
	model    string
	graph    string
	n        int
	lambda   float64
	q        int
	beta     float64
	seed     int64
	sampler  string
	delta    float64
	algo     string
	rounds   int
	sweeps   int
	chains   int
	rhat     bool
	converge string
	minESS   float64
	burnin   int
	minRate  float64
	cpuprof  string
	memprof  string
	verbose  bool
	// chainsSet records whether -chains appeared on the command line: the
	// adaptive driver defaults an unset -chains to a useful batch, but an
	// explicit -chains 1 stays an error (the diagnostics are cross-chain).
	chainsSet bool
}

// startProfiles wires the optional pprof outputs around the run: CPU
// profiling starts immediately, and the returned stop function finishes
// the CPU profile and writes a GC-settled heap profile. Profiles cover
// the whole run (setup + sampling) — profile long runs (-sweeps, -chains)
// so the fused kernels dominate the samples.
func startProfiles(o options) (stop func() error, err error) {
	var cpuFile *os.File
	if o.cpuprof != "" {
		cpuFile, err = os.Create(o.cpuprof)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if o.memprof != "" {
			f, err := os.Create(o.memprof)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// legacyInstanceFlags are the flags that describe an instance; they
// conflict with -spec, which is the complete description.
var legacyInstanceFlags = map[string]bool{
	"model": true, "graph": true, "n": true, "lambda": true, "q": true, "beta": true,
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("lsample", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.specPath, "spec", "", "declarative instance spec file (JSON; overrides -model/-graph/-n/-lambda/-q/-beta)")
	fs.StringVar(&o.model, "model", "hardcore", "model: hardcore | ising | coloring | matching")
	fs.StringVar(&o.graph, "graph", "cycle", "graph: "+strings.Join(graph.GeneratorNames(), " | "))
	fs.IntVar(&o.n, "n", 24, "graph size parameter (vertices, or side for grid/torus)")
	fs.Float64Var(&o.lambda, "lambda", 1.0, "fugacity / activity")
	fs.IntVar(&o.q, "q", 5, "colors (coloring model)")
	fs.Float64Var(&o.beta, "beta", 0.6, "Ising edge activity")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.StringVar(&o.sampler, "sampler", "jvv", "sampler: jvv (exact) | seq (approximate)")
	fs.Float64Var(&o.delta, "delta", 0.01, "TV error for the approximate sampler")
	fs.StringVar(&o.algo, "algo", "", "dynamics instead of -sampler: "+strings.Join(sampler.Names(), " | "))
	fs.IntVar(&o.rounds, "rounds", 0, "rounds for -algo (0 = -sweeps sweep-equivalents)")
	fs.IntVar(&o.sweeps, "sweeps", 64, "sweep-equivalents for -algo when -rounds is 0")
	fs.IntVar(&o.chains, "chains", 1, "independent chains advanced in lockstep by the batched dynamics (-algo "+strings.Join(sampler.MultiNames(), " | ")+")")
	fs.BoolVar(&o.rhat, "rhat", false, "report the worst-vertex cross-chain Gelman–Rubin R̂ (needs a batched -algo and -chains ≥ 2)")
	fs.StringVar(&o.converge, "converge", "", "adaptive stopping criterion, e.g. 'rhat<1.05': stop as soon as the worst-vertex R̂ meets the threshold (needs a batched -algo)")
	fs.Float64Var(&o.minESS, "min-ess", 0, "adaptive stopping floor on the per-vertex effective sample size (combines with -converge)")
	fs.IntVar(&o.burnin, "burnin", 0, "sweep-equivalents discarded before the adaptive driver starts observing")
	fs.Float64Var(&o.minRate, "min-rate", 0, "acceptance-rate floor per sweep-equivalent: below it the driver escalates to the next dynamic of the comma-separated -algo list")
	fs.StringVar(&o.cpuprof, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	fs.StringVar(&o.memprof, "memprofile", "", "write a GC-settled heap profile at exit to this file")
	fs.BoolVar(&o.verbose, "v", false, "verbose: print engine details (conditional-CDF cache coverage, zero-one mask draws)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "chains" {
			o.chainsSet = true
		}
	})
	if o.chains == 0 {
		return fmt.Errorf("-chains 0 names no engine: -chains counts the independent chains and must be ≥ 1")
	}
	if o.rounds < 0 {
		return fmt.Errorf("-rounds %d is negative: -rounds counts dynamics rounds and must be ≥ 0 (0 = use -sweeps)", o.rounds)
	}
	if o.sweeps < 0 {
		return fmt.Errorf("-sweeps %d is negative: -sweeps counts sweep-equivalents and must be ≥ 0", o.sweeps)
	}
	if o.sweeps == 0 && o.rounds == 0 {
		return fmt.Errorf("-sweeps 0 runs nothing: -sweeps counts sweep-equivalents and must be ≥ 1 when -rounds is 0")
	}
	// runAlgo takes the driver path on -min-ess > 0, which a NaN floor
	// fails: reject it here rather than silently run the fixed budget.
	if !(o.minESS >= 0) || math.IsInf(o.minESS, 1) {
		return fmt.Errorf("-min-ess %v is negative or not finite: -min-ess is a floor on the per-vertex effective sample size and must be a finite number ≥ 0 (0 = no floor)", o.minESS)
	}
	if o.specPath != "" {
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			if legacyInstanceFlags[f.Name] {
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-spec conflicts with %s: the spec file is the complete instance description", strings.Join(conflict, " "))
		}
	}
	stop, err := startProfiles(o)
	if err != nil {
		return err
	}
	err = sample(out, o)
	if perr := stop(); err == nil {
		err = perr
	}
	return err
}

// instanceSpec returns the declarative instance description: the -spec
// file when given, otherwise the document the legacy flags synthesize.
// Either way the instance is compiled by the same loader — the single
// construction codepath.
func instanceSpec(o options) (*spec.File, error) {
	if o.specPath != "" {
		data, err := os.ReadFile(o.specPath)
		if err != nil {
			return nil, err
		}
		return spec.Parse(data)
	}
	return legacySpec(o)
}

// legacySpec synthesizes the schema document described by the legacy
// -model/-graph/-n/-lambda/-q/-beta flags.
func legacySpec(o options) (*spec.File, error) {
	g := spec.Graph{Kind: strings.ToLower(o.graph), N: o.n}
	m := spec.Model{Kind: strings.ToLower(o.model)}
	switch m.Kind {
	case "hardcore", "matching":
		m.Lambda = o.lambda
	case "ising":
		m.Beta = o.beta
		m.Lambda = o.lambda
	case "coloring":
		m.Q = o.q
	default:
		return nil, fmt.Errorf("unknown model %q", o.model)
	}
	f := &spec.File{
		Version: spec.Version,
		Name:    fmt.Sprintf("%s-%s-%d", m.Kind, g.Kind, o.n),
		Graph:   g,
		Model:   &m,
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// sample is the profiled section of run: everything from model
// construction through the sampling itself.
func sample(out *os.File, o options) error {
	f, err := instanceSpec(o)
	if err != nil {
		return err
	}
	b, err := f.Build()
	if err != nil {
		return err
	}
	in, render := b.Instance, renderFor(b)
	if o.verbose {
		// CondStats forces the lazy cache build, so the coverage line is
		// accurate before any sampling starts. zero-one counts the
		// uncached vertices that take the mask draw, and tables the
		// distinct tables the cached vertices share.
		st := in.Spec.Compiled().CondStats()
		fmt.Fprintf(out, "cond-cache: cached=%d/%d vertices bytes=%d zero-one=%d tables=%d\n", st.Cached, st.Total, st.Bytes, st.ZeroOne, st.Tables)
	}
	rng := rand.New(rand.NewSource(o.seed))

	if o.algo != "" {
		return runAlgo(out, b, render, o)
	}
	if o.chains != 1 {
		return fmt.Errorf("-chains %d needs a batched -algo (%s); the -sampler path draws one exact/approximate sample — try -algo chromatic -chains %d", o.chains, strings.Join(sampler.MultiNames(), " | "), max(o.chains, 2))
	}
	if o.rhat {
		return fmt.Errorf("-rhat needs a batched -algo (%s) and -chains ≥ 2; the -sampler path draws one exact/approximate sample — try -algo chromatic -chains 8 -rhat", strings.Join(sampler.MultiNames(), " | "))
	}
	if o.converge != "" || o.minESS > 0 {
		return fmt.Errorf("-converge/-min-ess need a batched -algo (%s); the -sampler path draws one exact/approximate sample — try -algo chromatic -converge 'rhat<1.05'", strings.Join(sampler.MultiNames(), " | "))
	}

	oracle, err := buildOracle(b, o)
	if err != nil {
		return err
	}
	g := b.Input
	fmt.Fprintf(out, "model=%s graph=%s n=%d Δ=%d sampler=%s\n", b.ModelKind(), b.GraphKind(), g.N(), g.MaxDegree(), o.sampler)
	switch o.sampler {
	case "jvv":
		res, rounds, err := core.JVVLOCAL(in, oracle, core.JVVConfig{}, rng)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "rounds=%d locality=%d accepted=%v failures=%d\n",
			rounds, res.Locality, res.Accepted(), countTrue(res.Failed))
		fmt.Fprintln(out, render(res.Config))
	case "seq":
		res, err := core.SampleLOCAL(in, oracle, o.delta, rng)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "rounds=%d locality=%d failures=%d (TV error ≤ %g conditioned on success)\n",
			res.Rounds, res.SLOCALLocality, res.FailureCount(), o.delta)
		fmt.Fprintln(out, render(res.Config))
	default:
		return fmt.Errorf("unknown sampler %q", o.sampler)
	}
	return nil
}

// parseConverge parses the -converge criterion. The only supported form
// is "rhat<THRESHOLD" (optionally "rhat<=THRESHOLD"); spaces are ignored.
func parseConverge(s string) (float64, error) {
	c := strings.ReplaceAll(strings.ToLower(s), " ", "")
	rest, ok := strings.CutPrefix(c, "rhat<")
	if !ok {
		return 0, fmt.Errorf("unrecognized -converge criterion %q (supported: 'rhat<THRESHOLD', e.g. -converge 'rhat<1.05')", s)
	}
	rest = strings.TrimPrefix(rest, "=")
	x, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return 0, fmt.Errorf("-converge %q: threshold %q is not a number", s, rest)
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, fmt.Errorf("-converge %q: threshold %v is not finite", s, x)
	}
	return x, nil
}

// runAlgo runs the -algo path: any dynamics from the internal/sampler
// registry with -chains chains, or the adaptive driver when a stopping
// criterion (-converge/-min-ess/-rhat) is given. All degree-based
// heuristics use the instance's interaction graph, which differs from the
// input graph for the matching model (a vertex model on the line graph).
func runAlgo(out *os.File, b *spec.Built, render func(dist.Config) string, o options) error {
	in := b.Instance
	stages := strings.Split(strings.ToLower(o.algo), ",")
	for i, name := range stages {
		stages[i] = strings.TrimSpace(name)
		if _, ok := sampler.Lookup(stages[i]); !ok {
			return fmt.Errorf("unknown algo %q (have %s)", stages[i], strings.Join(sampler.Names(), " | "))
		}
	}
	useDriver := o.converge != "" || o.minESS > 0 || o.rhat
	if len(stages) > 1 && !useDriver {
		return fmt.Errorf("-algo escalation lists need the adaptive driver: add -converge 'rhat<1.05', -min-ess, or -rhat")
	}
	if useDriver {
		// -converge/-min-ess without -chains get a useful default batch;
		// the report-only -rhat keeps its explicit-chains contract, and an
		// explicit -chains 1 is always an error (diagnostics are
		// cross-chain).
		if !o.chainsSet && o.chains == 1 && !o.rhat {
			o.chains = adaptive.DefaultChains
		}
		if o.chains < 2 && o.chains >= 0 {
			return fmt.Errorf("-rhat/-converge/-min-ess are cross-chain diagnostics and need a batched -algo (%s) with -chains ≥ 2 — try -algo %s -chains 8", strings.Join(sampler.MultiNames(), " | "), stages[0])
		}
	}
	algo := stages[0]
	delta := in.Spec.G.MaxDegree()
	fmt.Fprintf(out, "model=%s graph=%s n=%d Δ=%d algo=%s\n", b.ModelKind(), b.GraphKind(), in.N(), delta, strings.Join(stages, ","))
	sweep, err := sampler.SweepRounds(algo, in)
	if err != nil {
		return err
	}
	if useDriver {
		return runDriver(out, in, render, stages, sweep, o)
	}
	rounds := o.rounds
	if rounds == 0 {
		rounds = o.sweeps * sweep
	}
	// One path for every chain count: the dynamic's engine with -chains
	// chains, rendering chain 0 (every chain is an equally valid sample;
	// the point of a batch is throughput per chain, reported by the
	// BenchmarkBatch* suite).
	s, err := sampler.Create(algo, in, sampler.Options{Chains: o.chains, Seed: o.seed})
	if err != nil {
		return err
	}
	if err := s.Run(rounds); err != nil {
		return err
	}
	fmt.Fprintf(out, "rounds=%d%s%s\n", s.Rounds(), batchStats(s), samplerStats(s))
	fmt.Fprintln(out, render(s.State()))
	return nil
}

// runDriver routes the run through the adaptive controller: advance in
// sweep-equivalents, observe the cross-chain diagnostics after every one,
// stop at the -converge/-min-ess targets (or report-only at the budget for
// bare -rhat), escalating down the -algo list on -min-rate collapse. The
// sweep budget is -sweeps, or -rounds converted at the first stage's
// sweep-equivalent rate.
func runDriver(out *os.File, in *gibbs.Instance, render func(dist.Config) string, stages []string, sweep int, o options) error {
	p := adaptive.Policy{
		Chains:     o.chains,
		BurnIn:     o.burnin,
		CheckEvery: 1,
		MinESS:     o.minESS,
	}
	if o.converge != "" {
		rhat, err := parseConverge(o.converge)
		if err != nil {
			return err
		}
		p.Rhat = rhat
	}
	p.MaxSweeps = o.sweeps
	if o.rounds > 0 {
		p.MaxSweeps = (o.rounds + sweep - 1) / sweep
	}
	for i, name := range stages {
		st := adaptive.Stage{Dynamic: name}
		if i < len(stages)-1 {
			st.MinRate = o.minRate
		}
		p.Stages = append(p.Stages, st)
	}
	rep, m, err := adaptive.Drive(in, o.seed, p)
	if err != nil {
		return err
	}
	for i, sr := range rep.Stages {
		fmt.Fprintf(out, "stage=%d dynamic=%s sweeps=%d rounds=%d checks=%d reason=%s\n",
			i, sr.Dynamic, sr.Sweeps, sr.Rounds, len(sr.Checks), sr.Reason)
	}
	if math.IsNaN(rep.Rhat) {
		fmt.Fprintf(out, "rhat: no checks within the %d-sweep budget (the diagnostics need ≥ 4 observations)\n", rep.Sweeps)
	} else {
		fmt.Fprintf(out, "rhat=%.4f worst-vertex=%d split-rhat=%.4f ess=%.1f ess-vertex=%d sweeps=%d stop=%s (R̂ ≈ 1 ⇔ chains converged)\n",
			rep.Rhat, rep.WorstVertex, rep.SplitRhat, rep.ESS, rep.ESSVertex, rep.Sweeps, rep.Reason)
	}
	fmt.Fprintf(out, "rounds=%d%s%s\n", m.Rounds(), batchStats(m), samplerStats(m))
	fmt.Fprintln(out, render(m.Chain(0)))
	return nil
}

// batchStats surfaces a batched engine's chain count, and the chromatic
// engine's schedule width (the other batched engines are scheduleless).
func batchStats(s sampler.Sampler) string {
	m, ok := s.(sampler.MultiChain)
	if !ok {
		return ""
	}
	out := fmt.Sprintf(" chains=%d", m.Chains())
	if b, ok := m.(interface{ Classes() [][]int }); ok {
		out += fmt.Sprintf(" stages/sweep=%d", len(b.Classes()))
	}
	return out
}

// samplerStats surfaces the optional per-dynamic counters through the
// uniform interface.
func samplerStats(s sampler.Sampler) string {
	var b strings.Builder
	if u, ok := s.(interface{ Updates() int64 }); ok {
		fmt.Fprintf(&b, " updates=%d", u.Updates())
	}
	if a, ok := s.(interface{ Accepts() int64 }); ok {
		fmt.Fprintf(&b, " accepts=%d", a.Accepts())
	}
	return b.String()
}

// renderFor picks the configuration renderer from the built instance:
// model-specific views for the named models, a generic value listing for
// explicit-factor documents.
func renderFor(b *spec.Built) func(dist.Config) string {
	switch {
	case b.Matching != nil:
		mm := b.Matching
		return func(c dist.Config) string {
			var sb strings.Builder
			sb.WriteString("matched edges:")
			for i, x := range c {
				if x == model.In {
					e := mm.EdgeList[i]
					fmt.Fprintf(&sb, " (%d,%d)", e.U, e.V)
				}
			}
			return sb.String()
		}
	case b.HyperMatching != nil:
		hm := b.HyperMatching
		return func(c dist.Config) string {
			var sb strings.Builder
			sb.WriteString("matched hyperedges:")
			for i, x := range c {
				if x == model.In {
					fmt.Fprintf(&sb, " %v", hm.Base.Edge(i))
				}
			}
			return sb.String()
		}
	}
	switch b.ModelKind() {
	case "hardcore":
		return renderBinary("occupied")
	case "ising", "twospin":
		return renderBinary("spin-up")
	case "coloring", "listcoloring":
		return renderColors("colors")
	default: // explicit-factors documents
		return renderColors("values")
	}
}

// buildOracle returns the inference oracle the jvv/seq samplers need,
// enforcing the uniqueness-regime preconditions of their analyses. The
// oracles are model-specific, so explicit-factor documents are restricted
// to the -algo dynamics.
func buildOracle(b *spec.Built, o options) (*core.DecayOracle, error) {
	m := b.File.Model
	if m == nil {
		return nil, fmt.Errorf("the jvv/seq samplers need a named model (their decay oracles are model-specific); explicit-factor specs run with -algo %s", strings.Join(sampler.Names(), " | "))
	}
	g := b.Input
	switch m.Kind {
	case "hardcore":
		est, err := decay.NewHardcoreSAW(g, m.Lambda)
		if err != nil {
			return nil, err
		}
		rate := model.HardcoreDecayRate(m.Lambda, g.MaxDegree())
		if rate >= 1 {
			return nil, fmt.Errorf("λ=%g is not in the uniqueness regime for Δ=%d (λc=%g): no SSM oracle available — the paper's Ω(diam) lower bound applies", m.Lambda, g.MaxDegree(), model.LambdaC(g.MaxDegree()))
		}
		return &core.DecayOracle{Est: est, Rate: rate, N: g.N()}, nil
	case "ising", "twospin":
		p := model.TwoSpinParams{Beta: m.Beta, Gamma: m.Gamma, Lambda: m.Lambda}
		if m.Kind == "ising" {
			p.Gamma = m.Beta
		}
		est, err := decay.NewTwoSpinSAW(g, p)
		if err != nil {
			return nil, err
		}
		if p.Beta == p.Gamma {
			lo, hi := model.IsingUniquenessInterval(g.MaxDegree())
			if p.Beta <= lo || p.Beta >= hi {
				return nil, fmt.Errorf("b=%g outside the uniqueness interval (%g, %g) for Δ=%d", p.Beta, lo, hi, g.MaxDegree())
			}
		}
		// Conservative rate from the distance to the interval boundary.
		return &core.DecayOracle{Est: est, Rate: 0.9, N: g.N()}, nil
	case "coloring", "listcoloring":
		est, err := decay.NewColoringEstimator(g, m.Q, m.Lists)
		if err != nil {
			return nil, err
		}
		if float64(m.Q) < model.AlphaStar()*float64(g.MaxDegree()) {
			fmt.Fprintf(os.Stderr, "lsample: warning: q=%d below α*Δ=%.2f — the GKM guarantee does not apply\n", m.Q, model.AlphaStar()*float64(g.MaxDegree()))
		}
		return &core.DecayOracle{Est: est, Rate: 0.8, N: g.N()}, nil
	case "matching":
		if b.Matching == nil {
			return nil, fmt.Errorf("matching model not constructed")
		}
		est := decay.NewMatchingEstimator(b.Matching)
		rate := model.MatchingDecayRate(m.Lambda, g.MaxDegree())
		return &core.DecayOracle{Est: est, Rate: rate, N: b.Matching.Spec.N()}, nil
	case "hypermatching":
		if b.HyperMatching == nil {
			return nil, fmt.Errorf("hypergraph matching model not constructed")
		}
		est, err := decay.NewHypergraphMatchingEstimator(b.HyperMatching)
		if err != nil {
			return nil, err
		}
		rate := model.MatchingDecayRate(m.Lambda, b.Hyper.MaxVertexDegree())
		return &core.DecayOracle{Est: est, Rate: rate, N: b.HyperMatching.Spec.N()}, nil
	default:
		return nil, fmt.Errorf("model %q has no decay oracle; run it with -algo %s", m.Kind, strings.Join(sampler.Names(), " | "))
	}
}

func renderBinary(label string) func(dist.Config) string {
	return func(c dist.Config) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%s vertices:", label)
		for v, x := range c {
			if x == model.In {
				fmt.Fprintf(&b, " %d", v)
			}
		}
		return b.String()
	}
}

func renderColors(label string) func(dist.Config) string {
	return func(c dist.Config) string {
		var b strings.Builder
		b.WriteString(label + ":")
		for v, x := range c {
			fmt.Fprintf(&b, " %d:%d", v, x)
		}
		return b.String()
	}
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
