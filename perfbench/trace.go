package main

// trace.go: the traced run. The tracer keeps spans in memory (name, start,
// end, parent, request id) and they are written out when the run ends.
// tracedDrive mirrors run.Drive call for call through the same public
// API, with a span around each call into a layer; the benchmark holds it
// to reproducing run.Drive's Report and final lattice exactly, so the
// per-layer split it yields is the split of the real driver's work.

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/run"
	"repro/internal/sampler"
	"repro/internal/state"
)

// span is one timed call into a layer.
type span struct {
	name string
	// req is the request id: drive requests count up from 0, setups count
	// down from −1.
	req int32
	// parent indexes the enclosing span, −1 for a request's root.
	parent int32
	// start and end are nanoseconds since the tracer's epoch.
	start, end int64
}

// tracer records spans. A nil *tracer records nothing, so the untraced
// paths share code with the traced ones at the cost of a nil check.
type tracer struct {
	epoch time.Time
	req   int32
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// request starts attributing spans to request id.
func (t *tracer) request(id int) {
	if t != nil {
		t.req = int32(id)
	}
}

// begin opens a span nested in the innermost open one and returns its
// index.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, req: t.req, parent: parent, start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// abandon closes every open span, after an error cut a request short.
func (t *tracer) abandon() {
	for t != nil && len(t.open) > 0 {
		t.end(t.open[len(t.open)-1])
	}
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its child spans cover. Children nest inside their parent and do
// not overlap, so that part is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	return self
}

// checkNesting verifies the span tree the self times rely on: every child
// lies inside its parent and after its previous sibling, and every span
// ends no earlier than it starts.
func checkNesting(spans []span) error {
	lastChildEnd := make(map[int32]int64)
	for i, s := range spans {
		if s.end < s.start {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.name)
		}
		if s.parent < 0 {
			continue
		}
		p := spans[s.parent]
		if s.req != p.req {
			return fmt.Errorf("span %d (%s) and its parent belong to different requests", i, s.name)
		}
		if s.start < p.start || s.end > p.end {
			return fmt.Errorf("span %d (%s) lies outside its parent %s", i, s.name, p.name)
		}
		if s.start < lastChildEnd[s.parent] {
			return fmt.Errorf("span %d (%s) overlaps its previous sibling", i, s.name)
		}
		lastChildEnd[s.parent] = s.end
	}
	return nil
}

// layerSeconds sums self times per span name over the requests selected by
// keep, and returns the sums divided by the number of selected requests
// (the mean seconds per request in each layer) together with that count.
// Because self times partition each root span, the values add up to the
// mean root duration.
func layerSeconds(spans []span, keep func(req int32) bool) (perReq map[string]float64, requests int) {
	self := selfTimes(spans)
	perReq = make(map[string]float64)
	for i, s := range spans {
		if !keep(s.req) {
			continue
		}
		perReq[s.name] += float64(self[i]) / 1e9
		if s.parent < 0 {
			requests++
		}
	}
	if requests > 0 {
		for k := range perReq {
			perReq[k] /= float64(requests)
		}
	}
	return perReq, requests
}

// stageStats is one traced stage's work, as the per-layer ratios need it.
type stageStats struct {
	dynamic string
	// sweeps and rounds are the stage's sweep-equivalents and native rounds,
	// sweepRounds the rounds per sweep-equivalent.
	sweeps, rounds, sweepRounds int
	// useful is the engine's update/acceptance counter at the stage's end,
	// attempted the free-vertex cells it offered an update: free vertices ×
	// chains × rounds.
	useful, attempted int64
	// stagesPerRound is the engine's barrier stages per round.
	stagesPerRound int
}

// driveStats is what the traced mirror counts besides spans.
type driveStats struct {
	stages    []stageStats
	checks    int
	rhatBytes uint64
}

// escalations is the number of stage handoffs in the drive.
func (d driveStats) escalations() int { return max(len(d.stages)-1, 0) }

// The optional engine surfaces run.Drive consults, declared here the same
// way the run package declares them.
type (
	accepter interface{ Accepts() int64 }
	updater  interface{ Updates() int64 }
	workered interface{ SetWorkers(int) }
)

// counterOf reads the engine's progress counter exactly as run.Drive does:
// acceptances when the engine counts them, heat-bath updates otherwise.
func counterOf(m sampler.MultiChain) (int64, bool) {
	if a, ok := m.(accepter); ok {
		return a.Accepts(), true
	}
	if u, ok := m.(updater); ok {
		return u.Updates(), true
	}
	return 0, false
}

// withDefaults fills the policy fields run.Drive defaults when they are
// zero. The benchmark's policies are valid, so no validation is repeated.
func withDefaults(p run.Policy) run.Policy {
	if p.Chains == 0 {
		p.Chains = run.DefaultChains
	}
	if p.MaxSweeps == 0 {
		p.MaxSweeps = run.DefaultMaxSweeps
	}
	if p.CheckEvery == 0 {
		p.CheckEvery = run.DefaultCheckEvery
	}
	if p.Workers == 0 {
		p.Workers = run.DefaultWorkers
	}
	return p
}

// tracedDrive is run.Drive with a span around every call into a layer:
// the same stage seeds (dist.StreamSeed(seed, stage)), burn-in, check
// cadence, SplitReady gate, rate signal, stop and escalation rules, and
// lattice handoff. Spans: sampler.create (engine construction and worker
// pinning), run.handoff (the SweepRounds lookup and, from the second stage
// on, the lattice copy), sampler.run (engine rounds), sampler.newrhat,
// sampler.observe, sampler.worst, sampler.split and sampler.ess (the R̂
// accumulator). Whatever falls outside them is the driver's own time.
func tracedDrive(tr *tracer, in *gibbs.Instance, seed int64, p run.Policy) (*run.Report, sampler.MultiChain, driveStats, error) {
	p = withDefaults(p)
	var ds driveStats
	fail := func(err error) (*run.Report, sampler.MultiChain, driveStats, error) {
		tr.abandon()
		return nil, nil, ds, err
	}
	nfree := len(in.FreeVertices())
	rep := &run.Report{
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
		sp := tr.begin("sampler.create")
		s, err := sampler.Create(st.Dynamic, in, sampler.Options{
			Chains: p.Chains,
			Seed:   dist.StreamSeed(seed, int64(si)),
		})
		if err != nil {
			return fail(fmt.Errorf("stage %d: %w", si, err))
		}
		m, ok := s.(sampler.MultiChain)
		if !ok {
			return fail(fmt.Errorf("stage %d: dynamic %q is not a multi-chain engine", si, st.Dynamic))
		}
		if p.Workers > 0 {
			if w, ok := m.(workered); ok {
				w.SetWorkers(p.Workers)
			}
		}
		tr.end(sp)

		sp = tr.begin("run.handoff")
		if prev != nil {
			if err := m.Lattice().CopyFrom(prev.Lattice()); err != nil {
				return fail(fmt.Errorf("stage %d handoff: %w", si, err))
			}
		}
		sweepRounds, err := sampler.SweepRounds(st.Dynamic, in)
		if err != nil {
			return fail(fmt.Errorf("stage %d: %w", si, err))
		}
		tr.end(sp)

		budget := remaining
		if st.MaxSweeps > 0 && st.MaxSweeps < budget {
			budget = st.MaxSweeps
		}
		sr := run.StageReport{Dynamic: st.Dynamic, SweepRounds: sweepRounds, Reason: run.Budget}
		stageSweeps := 0
		burn := min(p.BurnIn, budget)
		if burn > 0 {
			sp = tr.begin("sampler.run")
			err := m.Run(burn * sweepRounds)
			tr.end(sp)
			if err != nil {
				return fail(fmt.Errorf("stage %d burn-in: %w", si, err))
			}
			stageSweeps += burn
		}
		a0 := allocBytes()
		sp = tr.begin("sampler.newrhat")
		acc, err := sampler.NewRhat(m)
		tr.end(sp)
		ds.rhatBytes += allocBytes() - a0
		if err != nil {
			return fail(fmt.Errorf("stage %d: %w", si, err))
		}
		lastCounter, _ := counterOf(m)
		lastCounterSweep := stageSweeps
		sinceCheck := 0
		hasTarget := p.Rhat > 0 || p.MinESS > 0
		for stageSweeps < budget {
			sp = tr.begin("sampler.run")
			err := m.Run(sweepRounds)
			tr.end(sp)
			if err != nil {
				return fail(fmt.Errorf("stage %d: %w", si, err))
			}
			stageSweeps++
			sp = tr.begin("sampler.observe")
			acc.Observe()
			tr.end(sp)
			sinceCheck++
			if sinceCheck < p.CheckEvery || !acc.SplitReady() {
				continue
			}
			sinceCheck = 0
			sp = tr.begin("sampler.worst")
			wv, rh, err := acc.Worst()
			tr.end(sp)
			if err != nil {
				return fail(fmt.Errorf("stage %d: %w", si, err))
			}
			sp = tr.begin("sampler.split")
			sv, srh, err := acc.WorstSplit()
			tr.end(sp)
			if err != nil {
				return fail(fmt.Errorf("stage %d: %w", si, err))
			}
			sp = tr.begin("sampler.ess")
			ev, ess, err := acc.MinESS()
			tr.end(sp)
			if err != nil {
				return fail(fmt.Errorf("stage %d: %w", si, err))
			}
			ds.checks++
			rate := math.NaN()
			if c, ok := counterOf(m); ok && nfree > 0 && stageSweeps > lastCounterSweep {
				cells := int64(nfree) * int64(p.Chains) * int64(stageSweeps-lastCounterSweep)
				rate = float64(c-lastCounter) / float64(cells)
				lastCounter, lastCounterSweep = c, stageSweeps
			}
			sr.Checks = append(sr.Checks, run.Check{
				Sweep:       rep.Sweeps + stageSweeps,
				Rounds:      m.Rounds(),
				Rhat:        rh,
				WorstVertex: wv,
				SplitRhat:   srh,
				SplitVertex: sv,
				ESS:         ess,
				ESSVertex:   ev,
				Rate:        rate,
			})
			rep.Rhat, rep.WorstVertex = rh, wv
			rep.SplitRhat, rep.SplitVertex = srh, sv
			rep.ESS, rep.ESSVertex = ess, ev
			if hasTarget &&
				(p.Rhat <= 0 || rh <= p.Rhat) &&
				(p.MinESS <= 0 || ess >= p.MinESS) {
				sr.Reason = run.Converged
				break
			}
			if !last && st.MinRate > 0 && !math.IsNaN(rate) && rate < st.MinRate {
				sr.Reason = run.RateCollapse
				break
			}
		}
		if sr.Reason == run.Budget && !last && stageSweeps >= budget && remaining > budget {
			sr.Reason = run.StageBudget
		}
		sr.Sweeps = stageSweeps
		sr.Rounds = m.Rounds()
		useful, _ := counterOf(m)
		ds.stages = append(ds.stages, stageStats{
			dynamic:        st.Dynamic,
			sweeps:         stageSweeps,
			rounds:         sr.Rounds,
			sweepRounds:    sweepRounds,
			useful:         useful,
			attempted:      int64(nfree) * int64(p.Chains) * int64(sr.Rounds),
			stagesPerRound: stagesPerRound(m),
		})
		rep.Sweeps += stageSweeps
		remaining -= stageSweeps
		rep.Stages = append(rep.Stages, sr)
		rep.Dynamic = st.Dynamic
		rep.Reason = sr.Reason
		if sr.Reason == run.Converged || remaining <= 0 || last {
			rep.Converged = sr.Reason == run.Converged
			return rep, m, ds, nil
		}
		prev = m
	}
	return rep, prev, ds, nil
}

// sameReport reports whether two driver reports are identical, NaN fields
// included: %v prints every float in its shortest exact form.
func sameReport(a, b *run.Report) bool {
	return fmt.Sprintf("%+v", *a) == fmt.Sprintf("%+v", *b)
}

// sameLattice reports whether two lattices hold the same chains cell for
// cell.
func sameLattice(a, b *state.Lattice) bool {
	return a.N() == b.N() && a.Chains() == b.Chains() &&
		slices.Equal(a.Raw8(), b.Raw8()) && slices.Equal(a.RawWide(), b.RawWide())
}
