// Package sampler is the registry of every dynamic of the repo plus the
// cross-chain convergence diagnostics on their batched engines.
//
// The paper (Feng & Yin, PODC 2018) gives several dynamics with the same
// stationary Gibbs distribution — sequential Glauber, LubyGlauber,
// LocalMetropolis — and the repo adds a fourth, ChromaticGlauber.
// Before the registry existed, every consumer (experiments, cmd/lsample,
// the benchmarks) reached each dynamic through its own ad-hoc entry point
// and its own switch statement; they now select dynamics by name through
// Lookup/Create, and per-dynamic knowledge (how many rounds make one
// "sweep-equivalent") lives in the registry entry instead of being
// re-derived at every call site.
//
// Each dynamic has exactly one in-process engine. The three parallel
// dynamics run B independent chains in lockstep (MultiChain, the engines
// of internal/psample), and B = 1 is their single-chain form; only the
// sequential baseline (internal/glauber) is a plain single-chain Sampler.
// The diagnostics (rhat.go: R̂, split R̂, ESS) read those chains.
//
// The interface is deliberately small: a dynamic is something that can be
// restarted from the instance's canonical start (Reset), advanced by whole
// rounds (Run), and observed (State, Rounds). What a "round" is differs
// per dynamic — one single-site update for Glauber, one phase for
// LubyGlauber, one all-vertex proposal round for LocalMetropolis, one full
// χ-stage sweep for ChromaticGlauber — and Info.SweepRounds converts
// between them: Run(SweepRounds(in)) performs ≈ one expected update per
// free vertex for every registered dynamic, which is what makes mixing
// budgets comparable across dynamics.
package sampler

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/state"
)

// Sampler is the common control surface of every dynamic. All four
// built-in dynamics implement it natively: the three batched engines and
// the sequential chain.
type Sampler interface {
	// Reset restarts the dynamic from the instance's canonical start (the
	// greedy feasible completion of the pinning) with fresh RNG streams
	// derived from seed.
	Reset(seed int64) error
	// Run advances the dynamic by the given number of its own rounds.
	Run(rounds int) error
	// State returns a copy of the current configuration.
	State() dist.Config
	// Rounds returns the rounds executed since construction or the last
	// Reset.
	Rounds() int
}

// MultiChain is a Sampler advancing B independent chains in lockstep over
// one chain-major state lattice — the control surface of every batched
// engine (the ChromaticGlauber, LubyGlauber and LocalMetropolis engines of
// internal/psample). State() is chain 0's configuration, so a
// MultiChain at B = 1 is the dynamic's single-chain sampler; diagnostics
// that want all chains (the R̂ accumulator) read Chains/Chain/Lattice.
type MultiChain interface {
	Sampler
	// Chains returns B, the number of independent chains.
	Chains() int
	// Chain returns a copy of chain c's current configuration.
	Chain(c int) dist.Config
	// Lattice exposes the chain-major state container (read-only for
	// callers).
	Lattice() *state.Lattice
}

// Info is one registry entry: a named dynamic plus the per-dynamic
// knowledge its consumers need. Exactly one of New and NewBatch is set:
// the dynamic's one engine.
type Info struct {
	// Name is the registry key (also the cmd/lsample -algo value).
	Name string
	// Synopsis is a one-line description for CLI help output.
	Synopsis string
	// New constructs a single-chain dynamic (the sequential baseline) on
	// the instance, started from the greedy completion of the pinning,
	// with RNG streams derived from seed.
	New func(in *gibbs.Instance, seed int64) (Sampler, error)
	// SweepRounds returns how many rounds of this dynamic make one
	// sweep-equivalent (≈ one expected update per free vertex).
	SweepRounds func(in *gibbs.Instance) int
	// NewBatch constructs a batched dynamic with the given number of
	// chains, every chain started from the greedy completion of the
	// pinning, with RNG streams derived from seed.
	NewBatch func(in *gibbs.Instance, chains int, seed int64) (MultiChain, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Info{}
)

// Register adds a dynamic to the registry. It panics on an empty name, a
// duplicate, a missing sweep measure, or anything but exactly one
// constructor — registration is an init-time programming act, not a
// runtime input.
func Register(info Info) {
	if info.Name == "" || info.SweepRounds == nil || (info.New == nil) == (info.NewBatch == nil) {
		panic("sampler: Register needs a name, exactly one of New and NewBatch, and a sweep measure")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[info.Name]; dup {
		panic(fmt.Sprintf("sampler: dynamic %q registered twice", info.Name))
	}
	registry[info.Name] = info
}

// Lookup returns the registry entry for name.
func Lookup(name string) (Info, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	info, ok := registry[name]
	return info, ok
}

// Names returns the registered dynamic names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Options configures Create, the registry's single creation path.
type Options struct {
	// Chains is B, the number of independent chains advanced in lockstep;
	// 0 means 1. Batched dynamics return a MultiChain for every B ≥ 1 and
	// pass any other count to their engine, whose typed
	// *state.DomainError rejects it. Single-chain dynamics accept only 0
	// and 1.
	Chains int
	// Seed derives every RNG stream of the dynamic.
	Seed int64
}

// Create constructs the named dynamic on the instance. It is the one
// creation path consumers (cmd/lsample, the experiments, the adaptive run
// driver, the sampling service) call.
func Create(name string, in *gibbs.Instance, o Options) (Sampler, error) {
	info, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("sampler: unknown dynamic %q (have %v)", name, Names())
	}
	chains := o.Chains
	if chains == 0 {
		chains = 1
	}
	if info.NewBatch != nil {
		return info.NewBatch(in, chains, o.Seed)
	}
	if chains != 1 {
		return nil, fmt.Errorf("sampler: dynamic %q runs one chain, not %d (the batched dynamics are %v)", name, o.Chains, MultiNames())
	}
	return info.New(in, o.Seed)
}

// MultiNames returns the registered batched dynamics (those whose engine
// is a MultiChain), sorted.
func MultiNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name, info := range registry {
		if info.NewBatch != nil {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// SweepRounds returns the rounds-per-sweep-equivalent of the named dynamic
// on the instance.
func SweepRounds(name string, in *gibbs.Instance) (int, error) {
	info, ok := Lookup(name)
	if !ok {
		return 0, fmt.Errorf("sampler: unknown dynamic %q (have %v)", name, Names())
	}
	return max(info.SweepRounds(in), 1), nil
}
