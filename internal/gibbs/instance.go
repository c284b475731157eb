package gibbs

import (
	"fmt"
	"sync"

	"repro/internal/dist"
)

// Instance is a sampling/counting instance (G, x, τ) per Definition 2.2: a
// Gibbs specification together with a feasible pinned partial configuration
// τ on a subset Λ ⊆ V. The target distribution is µ^τ, the Gibbs
// distribution conditioned on agreeing with τ. Pinning realizes the paper's
// self-reducibility: pinning more vertices of an instance yields another
// instance of the same class (Remark 2.2).
//
// The samplers' update rules depend only on the instance, so the instance
// caches them (Rules): every engine, stage and drive on one instance shares
// one compiled value. Hence the contract: Spec must not change once it has
// been compiled (Spec.Compiled), and Pinned must not change once an engine
// has been built on the instance. Pin and PinAll return a new instance
// instead. Under that contract any number of goroutines may build engines
// and drive on one instance at once: the caches are filled once, behind
// sync.Once, and only read after.
type Instance struct {
	Spec *Spec
	// Pinned is τ: Pinned[v] = Unset for free vertices, otherwise the pinned
	// symbol.
	Pinned dist.Config

	// rules is the value Rules builds on its first call, and rulesErr the
	// error it built instead.
	rulesOnce sync.Once
	rules     any
	rulesErr  error
}

// NewInstance returns an instance with the given pinning; a nil pinning
// means all vertices free. The pinning is copied.
func NewInstance(s *Spec, pinned dist.Config) (*Instance, error) {
	if pinned == nil {
		pinned = dist.NewConfig(s.N())
	}
	if len(pinned) != s.N() {
		return nil, fmt.Errorf("gibbs: pinning length %d != n %d", len(pinned), s.N())
	}
	for v, x := range pinned {
		if x != dist.Unset && (x < 0 || x >= s.Q) {
			return nil, fmt.Errorf("gibbs: pinned value %d at vertex %d outside alphabet q=%d", x, v, s.Q)
		}
	}
	return &Instance{Spec: s, Pinned: pinned.Clone()}, nil
}

// Start returns the canonical start every dynamic runs from: the greedy
// feasible completion of the pinning (Compiled.GreedyCompletion), checked
// to have positive weight. A pinning with no such completion gives an
// error wrapping ErrInfeasible.
func (in *Instance) Start() (dist.Config, error) {
	eng := in.Spec.Compiled()
	start, err := eng.GreedyCompletion(in.Pinned)
	if err != nil {
		return nil, err
	}
	w, err := eng.Weight(start)
	if err != nil {
		return nil, err
	}
	if w <= 0 {
		return nil, fmt.Errorf("%w: the greedy completion of the pinning has weight %v", ErrInfeasible, w)
	}
	return start, nil
}

// Rules returns the samplers' compiled update rules of the instance,
// calling build on the first call only: every later call, from any
// goroutine, returns the first call's value and error. The value is
// untyped because this package cannot name its type (psample.Rules, whose
// package imports this one); psample.RulesOf is the one caller, so every
// call passes the same build.
func (in *Instance) Rules(build func(*Instance) (any, error)) (any, error) {
	in.rulesOnce.Do(func() { in.rules, in.rulesErr = build(in) })
	return in.rules, in.rulesErr
}

// N returns the number of variables.
func (in *Instance) N() int { return in.Spec.N() }

// Q returns the alphabet size.
func (in *Instance) Q() int { return in.Spec.Q }

// Lambda returns Λ, the pinned vertex set.
func (in *Instance) Lambda() []int { return in.Pinned.Assigned() }

// FreeVertices returns V \ Λ.
func (in *Instance) FreeVertices() []int { return in.Pinned.Free() }

// Pin returns a new instance with vertex v additionally pinned to symbol x
// (self-reduction step). Pinning an already-pinned vertex to a different
// value is an error.
func (in *Instance) Pin(v, x int) (*Instance, error) {
	if v < 0 || v >= in.N() {
		return nil, fmt.Errorf("gibbs: pin vertex %d out of range", v)
	}
	if x < 0 || x >= in.Q() {
		return nil, fmt.Errorf("gibbs: pin value %d outside alphabet q=%d", x, in.Q())
	}
	if in.Pinned[v] != dist.Unset && in.Pinned[v] != x {
		return nil, fmt.Errorf("gibbs: vertex %d already pinned to %d, cannot repin to %d", v, in.Pinned[v], x)
	}
	out := &Instance{Spec: in.Spec, Pinned: in.Pinned.Clone()}
	out.Pinned[v] = x
	return out, nil
}

// PinAll returns a new instance whose pinning is the union of the current
// pinning and the given partial configuration (which wins on conflicts —
// callers ensure consistency).
func (in *Instance) PinAll(extra dist.Config) *Instance {
	out := &Instance{Spec: in.Spec, Pinned: extra.Merge(in.Pinned)}
	return out
}

// LocallyFeasible reports whether the current pinning is locally feasible.
func (in *Instance) LocallyFeasible() bool {
	return in.Spec.LocallyFeasible(in.Pinned)
}
