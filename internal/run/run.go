// Package run is the adaptive run controller: one driver owning the
// advance/observe/decide loop that every consumer of the batched engines
// used to hand-roll (cmd/lsample's private R̂ loop, the experiments' fixed
// sweep budgets). The driver advances any sampler.MultiChain in
// sweep-equivalent chunks, observes the cross-chain diagnostics
// (worst-vertex R̂ in both the whole-chain and split forms, per-vertex
// effective sample size, the engine's acceptance/update rate), and
// decides: stop when the convergence targets
// of the Policy are met, escalate to the next dynamic of an ordered stage
// list when the current one's acceptance rate collapses or its stage
// budget runs out (carrying the chains over via state.Lattice.CopyFrom),
// or give up when the total budget is spent. The outcome is a typed
// Report: rounds used, the per-check diagnostic trajectory, which dynamic
// finished, and why the driver stopped.
//
// A decision reads the worst whole-chain R̂ (sampler.Rhat.Worst, from the
// running moments) and the rate, and, only when the Policy sets MinESS,
// the ESS. So unless MinESS is set, the driver decides first and, if the
// stage goes on, queues the check's split-R̂/ESS pass (sampler.Rhat.Queue)
// on the drive's one backlog (sampler.Backlog) while it keeps sweeping.
// Up to GOMAXPROCS − Policy.Workers background workers, on the cores the
// pinned engines leave free, drain the backlog oldest pass first, each
// taking a whole pass; the passes of an escalated stage go on draining
// while the next stage runs. A check that ends its stage runs its pass
// inline (sampler.Rhat.Check, on every core), as every check does when
// MinESS is set or no core is spare. No pass outlives the drive: every
// return, error paths included, drains the backlog — the driver takes the
// passes no worker has taken while the workers finish theirs — and the
// queued checks' split-R̂ and ESS fields are filled in then.
//
// Determinism is part of the contract: given (instance, seed, policy) the
// stop decision, the full Report, and the final lattice are
// bit-reproducible. Three things make that true. Per-stage engine seeds are
// derived as dist.StreamSeed(seed, stage), so the escalation path never
// re-uses a stream; the Policy pins the engines' worker count to a fixed
// default (per-worker RNG streams mean trajectories depend on the worker
// count, and the engines' own default scales with GOMAXPROCS —
// machine-dependent); and a check's split-R̂/ESS pass reads a frozen view
// of the history and draws no random numbers, so it reports the same
// whether it ran inline or in the background, on one core or several. The
// corpus property test at the repo root holds the driver to this across
// every instance and every batched dynamic.
package run

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/sampler"
)

// Defaults applied by Policy.withDefaults for fields left zero.
const (
	// DefaultChains is the chain count when Policy.Chains is 0. Sixteen
	// chains give the split diagnostic 2B = 32 sequences and, more to the
	// point, sharpen the between-chain variance estimate of the gating
	// whole-chain R̂ — the statistic's noise shrinks like √(2/(B−1)), and
	// that noise (maximized over vertices) is what decides whether a tight
	// threshold can resolve inside a small sweep budget.
	DefaultChains = 16
	// DefaultMaxSweeps bounds the total run when Policy.MaxSweeps is 0.
	DefaultMaxSweeps = 1024
	// DefaultCheckEvery is the decision cadence in observations (one
	// observation per sweep-equivalent) when Policy.CheckEvery is 0.
	DefaultCheckEvery = 8
	// DefaultWorkers pins the engines' worker count. The engines' own
	// default scales with GOMAXPROCS, and per-worker RNG streams make the
	// trajectory a function of the worker count — a fixed default keeps
	// (instance, seed, policy) → report reproducible across machines.
	DefaultWorkers = 4
)

// PolicyError is the typed validation error of a Policy.
type PolicyError struct {
	Field  string
	Reason string
}

func (e *PolicyError) Error() string {
	return fmt.Sprintf("run: invalid policy: %s: %s", e.Field, e.Reason)
}

// Stage is one entry of a Policy's ordered escalation list.
type Stage struct {
	// Dynamic names a registered batched dynamic (sampler.MultiNames).
	Dynamic string
	// MaxSweeps caps this stage's sweep-equivalents; 0 means no per-stage
	// cap (the stage may use the whole remaining budget). The last stage's
	// cap is also a hard stop — there is nothing to escalate to.
	MaxSweeps int
	// MinRate is the acceptance/update-rate floor (updates per free-vertex
	// cell per sweep-equivalent): when a check observes the stage's rate
	// below it, the driver escalates to the next stage. 0 disables the
	// trigger; it is ignored on the last stage.
	MinRate float64
}

// Policy is the driver's decision rule.
type Policy struct {
	// Stages is the ordered escalation list. Empty is invalid — use One
	// for the common single-dynamic run.
	Stages []Stage
	// Chains is the number of lockstep chains (default DefaultChains,
	// minimum 2 — the diagnostics are cross-chain).
	Chains int
	// BurnIn is the number of sweep-equivalents discarded before
	// observation starts, per stage (the handoff re-burns: the carried
	// lattice is the new dynamic's start, not its stationary sample).
	BurnIn int
	// MaxSweeps is the total sweep-equivalent budget across all stages
	// (default DefaultMaxSweeps).
	MaxSweeps int
	// CheckEvery is the decision cadence in observations (default
	// DefaultCheckEvery): diagnostics are recomputed and the stop/escalate
	// decision retaken every CheckEvery sweep-equivalents.
	CheckEvery int
	// Rhat, when positive, is the convergence threshold on the
	// worst-vertex whole-chain R̂. The gate deliberately uses the classic
	// whole-chain form, not split-R̂: with T observations the split
	// statistic's sampling floor is ≈ √(1+2/(T/2)) per vertex — amplified
	// by the worst-over-vertices max — so tight thresholds like 1.05 are
	// unreachable inside small budgets even on instances that mixed long
	// ago. The split form is still computed at every check
	// (Check.SplitRhat) as the conservative non-stationarity diagnostic.
	Rhat float64
	// MinESS, when positive, is the convergence floor on the
	// smallest per-vertex effective sample size. The decision then
	// needs the ESS, so every check's split-R̂/ESS pass runs inline.
	MinESS float64
	// Workers pins the engines' worker count (default DefaultWorkers;
	// negative requests the engines' own machine-dependent default, which
	// forfeits cross-machine reproducibility). It also decides how many
	// cores the checks may borrow: unless MinESS is set, every check that
	// does not end its stage queues its split-R̂/ESS pass, and up to
	// GOMAXPROCS − Workers background workers (none for a negative
	// Workers, whose engines fill every core) run the queued passes beside
	// the engines. The check draws no random numbers and reports the same
	// whatever the core count and wherever it ran.
	Workers int
}

// withDefaults returns the policy with zero fields defaulted and validates
// it.
func (p Policy) withDefaults() (Policy, error) {
	if len(p.Stages) == 0 {
		return p, &PolicyError{Field: "Stages", Reason: "need at least one stage"}
	}
	for i, st := range p.Stages {
		if st.Dynamic == "" {
			return p, &PolicyError{Field: fmt.Sprintf("Stages[%d].Dynamic", i), Reason: "empty dynamic name"}
		}
		if st.MaxSweeps < 0 {
			return p, &PolicyError{Field: fmt.Sprintf("Stages[%d].MaxSweeps", i), Reason: "negative stage budget"}
		}
		if !(st.MinRate >= 0 && st.MinRate <= 1) { // NaN included
			return p, &PolicyError{Field: fmt.Sprintf("Stages[%d].MinRate", i), Reason: "rate floor outside [0, 1]"}
		}
	}
	if p.Chains == 0 {
		p.Chains = DefaultChains
	}
	if p.Chains < 2 {
		return p, &PolicyError{Field: "Chains", Reason: "cross-chain diagnostics need ≥ 2 chains"}
	}
	if p.BurnIn < 0 {
		return p, &PolicyError{Field: "BurnIn", Reason: "negative burn-in"}
	}
	if p.MaxSweeps == 0 {
		p.MaxSweeps = DefaultMaxSweeps
	}
	if p.MaxSweeps < 0 {
		return p, &PolicyError{Field: "MaxSweeps", Reason: "negative budget"}
	}
	if p.CheckEvery == 0 {
		p.CheckEvery = DefaultCheckEvery
	}
	if p.CheckEvery < 0 {
		return p, &PolicyError{Field: "CheckEvery", Reason: "negative check cadence"}
	}
	if !finite(p.Rhat) {
		return p, &PolicyError{Field: "Rhat", Reason: "non-finite threshold"}
	}
	if p.Rhat < 0 {
		return p, &PolicyError{Field: "Rhat", Reason: "negative threshold"}
	}
	if p.Rhat > 0 && p.Rhat < 1 {
		return p, &PolicyError{Field: "Rhat", Reason: "R̂ thresholds below 1 are unreachable"}
	}
	if !finite(p.MinESS) {
		return p, &PolicyError{Field: "MinESS", Reason: "non-finite target"}
	}
	if p.MinESS < 0 {
		return p, &PolicyError{Field: "MinESS", Reason: "negative target"}
	}
	if p.Workers == 0 {
		p.Workers = DefaultWorkers
	}
	return p, nil
}

// finite reports whether x is neither NaN nor infinite. A NaN target fails
// every comparison, so it would never fire; an infinite one fires at once
// (Rhat) or never (MinESS).
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// StopReason says why the driver stopped or left a stage.
type StopReason string

const (
	// Converged: every active convergence target was met at a check.
	Converged StopReason = "converged"
	// Budget: the total sweep budget ran out before convergence.
	Budget StopReason = "budget"
	// StageBudget: the stage's own cap ran out and the driver escalated.
	StageBudget StopReason = "stage-budget"
	// RateCollapse: the stage's acceptance/update rate fell below its
	// floor and the driver escalated.
	RateCollapse StopReason = "rate-collapse"
)

// Check is one decision point's diagnostics.
type Check struct {
	// Sweep is the cumulative sweep-equivalent count across all stages at
	// this check.
	Sweep int
	// Rounds is the current stage's native round count at this check.
	Rounds int
	// Rhat is the worst-vertex whole-chain R̂ (the gating statistic) and
	// WorstVertex the vertex attaining it.
	Rhat        float64
	WorstVertex int
	// SplitRhat is the worst-vertex split-R̂ diagnostic and SplitVertex
	// the vertex attaining it. It is recorded, not gated on: see
	// Policy.Rhat for why.
	SplitRhat   float64
	SplitVertex int
	// ESS is the smallest per-vertex effective sample size and ESSVertex
	// the vertex attaining it.
	ESS       float64
	ESSVertex int
	// Rate is the stage's acceptance/update rate since the previous check:
	// counter delta per free-vertex cell per sweep-equivalent (NaN when
	// the engine exposes no counter).
	Rate float64
}

// StageReport is one stage's slice of the run.
type StageReport struct {
	// Dynamic is the stage's registry name, SweepRounds its native rounds
	// per sweep-equivalent on this instance.
	Dynamic     string
	SweepRounds int
	// Sweeps and Rounds are the stage's consumption (sweep-equivalents
	// including burn-in, and native rounds).
	Sweeps int
	Rounds int
	// Checks is the stage's decision-point trajectory.
	Checks []Check
	// Reason says how the stage ended: Converged, Budget, or the
	// escalation triggers StageBudget / RateCollapse.
	Reason StopReason
}

// Report is the driver's typed outcome.
type Report struct {
	// Stages is the per-stage trajectory, in execution order.
	Stages []StageReport
	// Dynamic is the dynamic that finished (the last stage run), Sweeps
	// the cumulative sweep-equivalents across stages.
	Dynamic string
	Sweeps  int
	// Reason is the final stage's stop reason; Converged is its
	// convenience form.
	Reason    StopReason
	Converged bool
	// Rhat/WorstVertex (whole-chain, gating), SplitRhat/SplitVertex
	// (split diagnostic), and ESS/ESSVertex are the final check's
	// diagnostics (NaN/-1 when the run ended before any check — budget 0
	// or a cadence longer than the budget).
	Rhat        float64
	WorstVertex int
	SplitRhat   float64
	SplitVertex int
	ESS         float64
	ESSVertex   int
}

// counters is the optional observation surface of the batched engines:
// LocalMetropolis exposes accepted proposals, the Glauber-family engines
// unconditional heat-bath updates.
type accepter interface{ Accepts() int64 }
type updater interface{ Updates() int64 }

// workered is the optional worker-pinning surface of the batched engines.
type workered interface{ SetWorkers(int) }

// counterOf reads the engine's progress counter, preferring acceptance
// (the rate that actually collapses) over unconditional updates.
func counterOf(m sampler.MultiChain) (int64, bool) {
	if a, ok := m.(accepter); ok {
		return a.Accepts(), true
	}
	if u, ok := m.(updater); ok {
		return u.Updates(), true
	}
	return 0, false
}

// One runs a single dynamic under the policy: p.Stages is replaced by the
// one-entry list. It is the common case for cmd/lsample and the
// experiments.
func One(in *gibbs.Instance, dynamic string, seed int64, p Policy) (*Report, sampler.MultiChain, error) {
	p.Stages = []Stage{{Dynamic: dynamic}}
	return Drive(in, seed, p)
}

// Drive runs the policy's escalation list over the instance and returns
// the report together with the engine that finished (its lattice is the
// final state; callers draw samples from its chains). The error path
// covers construction and engine failures; a run that merely fails to
// converge is not an error — it is a Report with Reason Budget.
func Drive(in *gibbs.Instance, seed int64, p Policy) (*Report, sampler.MultiChain, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	// A check's split-R̂/ESS pass may borrow the cores the pinned engines
	// leave free, unless the decision needs the ESS.
	spare := 0
	if p.Workers > 0 && p.MinESS == 0 {
		spare = max(runtime.GOMAXPROCS(0)-p.Workers, 0)
	}
	dr := driver{p: p, spare: spare, q: sampler.NewBacklog(spare)}
	rep, m, err := dr.stages(in, seed)
	// No pass or goroutine outlives the drive: every return drains the
	// backlog, error paths included.
	res := dr.q.Drain()
	if err != nil {
		return nil, nil, err
	}
	for i, at := range dr.queued {
		rep.Stages[at.stage].Checks[at.check].set(res[i])
	}
	// The report carries the last check's diagnostics, from the last
	// stage that ran one.
	for i := len(rep.Stages) - 1; i >= 0; i-- {
		if cks := rep.Stages[i].Checks; len(cks) > 0 {
			ck := cks[len(cks)-1]
			rep.Rhat, rep.WorstVertex = ck.Rhat, ck.WorstVertex
			rep.SplitRhat, rep.SplitVertex = ck.SplitRhat, ck.SplitVertex
			rep.ESS, rep.ESSVertex = ck.ESS, ck.ESSVertex
			break
		}
	}
	return rep, m, nil
}

// driver is one drive's state: the policy, the cores spare for passes,
// the backlog of deferred passes and, in queue order, the checks whose
// split-R̂/ESS fields wait for them.
type driver struct {
	p      Policy
	spare  int
	q      *sampler.Backlog
	queued []checkAt
}

// checkAt locates a check in the report: stage index, then check index.
type checkAt struct{ stage, check int }

// stages runs the escalation list. It leaves the split-R̂/ESS fields of
// the checks in dr.queued, and the report's final diagnostics, to Drive.
func (dr *driver) stages(in *gibbs.Instance, seed int64) (*Report, sampler.MultiChain, error) {
	p := dr.p
	nfree := freeCount(in)
	rep := &Report{
		Rhat:        math.NaN(),
		WorstVertex: -1,
		SplitRhat:   math.NaN(),
		SplitVertex: -1,
		ESS:         math.NaN(),
		ESSVertex:   -1,
	}
	var prev sampler.MultiChain
	remaining := p.MaxSweeps
	for si, st := range p.Stages {
		last := si == len(p.Stages)-1
		s, err := sampler.Create(st.Dynamic, in, sampler.Options{
			Chains: p.Chains,
			Seed:   dist.StreamSeed(seed, int64(si)),
		})
		if err != nil {
			return nil, nil, fmt.Errorf("run: stage %d: %w", si, err)
		}
		m, ok := s.(sampler.MultiChain)
		if !ok {
			return nil, nil, fmt.Errorf("run: stage %d: dynamic %q is not a multi-chain engine", si, st.Dynamic)
		}
		if p.Workers > 0 {
			if w, ok := m.(workered); ok {
				w.SetWorkers(p.Workers)
			}
		}
		if prev != nil {
			// Lattice handoff: the previous stage's chains are the new
			// stage's start — the escalation continues the walk, it does
			// not restart it.
			if err := m.Lattice().CopyFrom(prev.Lattice()); err != nil {
				return nil, nil, fmt.Errorf("run: stage %d handoff: %w", si, err)
			}
		}
		sweepRounds, err := sampler.SweepRounds(st.Dynamic, in)
		if err != nil {
			return nil, nil, fmt.Errorf("run: stage %d: %w", si, err)
		}
		budget := remaining
		if st.MaxSweeps > 0 && st.MaxSweeps < budget {
			budget = st.MaxSweeps
		}
		sr := StageReport{Dynamic: st.Dynamic, SweepRounds: sweepRounds, Reason: Budget}
		stageSweeps := 0
		burn := min(p.BurnIn, budget)
		if burn > 0 {
			if err := m.Run(burn * sweepRounds); err != nil {
				return nil, nil, fmt.Errorf("run: stage %d burn-in: %w", si, err)
			}
			stageSweeps += burn
		}
		acc, err := dr.q.NewRhat(m)
		if err != nil {
			return nil, nil, fmt.Errorf("run: stage %d: %w", si, err)
		}
		lastCounter, _ := counterOf(m)
		lastCounterSweep := stageSweeps
		sinceCheck := 0
		hasTarget := p.Rhat > 0 || p.MinESS > 0
		for stageSweeps < budget {
			if err = m.Run(sweepRounds); err != nil {
				break
			}
			stageSweeps++
			acc.Observe()
			sinceCheck++
			if sinceCheck < p.CheckEvery || !acc.SplitReady() {
				continue
			}
			sinceCheck = 0
			ck := Check{Sweep: rep.Sweeps + stageSweeps, Rounds: m.Rounds(), Rate: math.NaN()}
			if dr.spare > 0 {
				// The decision reads only the whole-chain R̂ and the rate.
				ck.WorstVertex, ck.Rhat, err = acc.Worst()
			} else {
				var d sampler.Diagnostics
				d, err = acc.Check()
				ck.Rhat, ck.WorstVertex = d.Rhat, d.WorstVertex
				ck.set(d)
			}
			if err != nil {
				break
			}
			if c, ok := counterOf(m); ok && nfree > 0 && stageSweeps > lastCounterSweep {
				cells := int64(nfree) * int64(p.Chains) * int64(stageSweeps-lastCounterSweep)
				ck.Rate = float64(c-lastCounter) / float64(cells)
				lastCounter, lastCounterSweep = c, stageSweeps
			}
			switch {
			case hasTarget &&
				(p.Rhat <= 0 || ck.Rhat <= p.Rhat) &&
				(p.MinESS <= 0 || ck.ESS >= p.MinESS):
				sr.Reason = Converged
			case !last && st.MinRate > 0 && !math.IsNaN(ck.Rate) && ck.Rate < st.MinRate:
				sr.Reason = RateCollapse
			}
			if dr.spare > 0 {
				// A check that ends its stage runs its pass on the driver;
				// every other check's pass joins the backlog, beside the
				// next sweeps.
				if sr.Reason == Budget && stageSweeps < budget {
					if err = acc.Queue(); err != nil {
						break
					}
					dr.queued = append(dr.queued, checkAt{stage: si, check: len(sr.Checks)})
				} else {
					var d sampler.Diagnostics
					if d, err = acc.Check(); err != nil {
						break
					}
					ck.set(d)
				}
			}
			sr.Checks = append(sr.Checks, ck)
			if sr.Reason != Budget {
				break
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("run: stage %d: %w", si, err)
		}
		if sr.Reason == Budget && !last && stageSweeps >= budget && remaining > budget {
			// The stage cap (not the total budget) ran out: escalate.
			sr.Reason = StageBudget
		}
		sr.Sweeps = stageSweeps
		sr.Rounds = m.Rounds()
		rep.Sweeps += stageSweeps
		remaining -= stageSweeps
		rep.Stages = append(rep.Stages, sr)
		rep.Dynamic = st.Dynamic
		rep.Reason = sr.Reason
		if sr.Reason == Converged || remaining <= 0 {
			rep.Converged = sr.Reason == Converged
			return rep, m, nil
		}
		if last {
			return rep, m, nil
		}
		prev = m
	}
	// Unreachable: the last stage always returns above.
	return rep, prev, nil
}

// set records the split-R̂/ESS fields of a pass in the check.
func (c *Check) set(d sampler.Diagnostics) {
	c.SplitRhat, c.SplitVertex = d.SplitRhat, d.SplitVertex
	c.ESS, c.ESSVertex = d.ESS, d.ESSVertex
}

// freeCount returns the number of unpinned vertices of the instance — the
// cell denominator of the rate signal — counted in place.
func freeCount(in *gibbs.Instance) int {
	n := 0
	for _, x := range in.Pinned {
		if x == dist.Unset {
			n++
		}
	}
	return n
}
