// Package exact provides brute-force ground truth for small instances:
// partition functions, exact joint distributions (which also draw exact
// samples) and exact (conditional) marginals, all by exhaustive
// enumeration. The distributed algorithms never rely on this package for
// efficiency — it is the referee against which the paper's exactness and
// accuracy claims (Theorems 3.2, 4.2, 5.1) are verified, and it implements
// the exact within-ball marginal computations that the paper's local
// algorithms perform after pinning a boundary shell (Sections 4.1 and 5).
package exact

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/state"
)

// ErrTooLarge indicates that enumeration would exceed the configured budget.
var ErrTooLarge = errors.New("exact: enumeration too large")

// DefaultBudget is the default maximum number of configurations enumerated.
const DefaultBudget = 1 << 24

// enumerate iterates over all positive-weight total extensions of the
// instance pinning, calling visit with the single-chain lattice holding the
// configuration and its weight (visit must not retain the lattice's cells
// across calls).
//
// The assignment walk runs on a compact state.Lattice (one byte per vertex
// for q ≤ 255) and the weight is maintained incrementally on the compiled
// engine: assigning free vertex v multiplies the running product by
// gibbs.PartialWeightAtCells1 — the factors whose last unassigned scope vertex
// is v — so each factor is accounted exactly once along a root-to-leaf path
// and a zero delta prunes the subtree. No per-leaf full re-evaluation, no
// allocation in the recursion.
func enumerate(in *gibbs.Instance, budget int, visit func(l *state.Lattice, w float64)) error {
	eng := in.Spec.Compiled()
	free := in.FreeVertices()
	q := in.Q()
	total := 1.0
	for range free {
		total *= float64(q)
		if total > float64(budget) {
			return fmt.Errorf("%w: q^free = %.0f > budget %d", ErrTooLarge, total, budget)
		}
	}
	lat, err := state.New(in.N(), 1, q)
	if err != nil {
		return err
	}
	if err := lat.SetChain(0, in.Pinned); err != nil {
		return err
	}
	if u8 := lat.Raw8(); u8 != nil {
		enumerateCells(eng, lat, u8, free, q, visit)
	} else {
		enumerateCells(eng, lat, lat.RawWide(), free, q, visit)
	}
	return nil
}

// enumerateCells is the width-specialized recursion of enumerate: the
// representation is dispatched once, and the single-chain cell writes
// (layout cells[v], B = 1) and incremental weight deltas run on the raw
// cells. T(dist.Unset) is the representation's own Unset sentinel (−1
// truncates to the compact 0xFF).
func enumerateCells[T state.Cells](eng *gibbs.Compiled, lat *state.Lattice, cells []T, free []int, q int, visit func(l *state.Lattice, w float64)) {
	// Factors fully determined by the pinning contribute once, up front.
	base := gibbs.PartialWeightCells1(eng, cells)
	if base == 0 {
		return
	}
	unset := dist.Unset // variable, so T(unset) truncates to the cell sentinel
	var rec func(i int, w float64)
	rec = func(i int, w float64) {
		if i == len(free) {
			visit(lat, w)
			return
		}
		v := free[i]
		for x := 0; x < q; x++ {
			cells[v] = T(x)
			d := gibbs.PartialWeightAtCells1(eng, cells, v)
			if d == 0 {
				continue
			}
			rec(i+1, w*d)
		}
		cells[v] = T(unset)
	}
	rec(0, base)
}

// Partition returns Z(τ) = Σ_{σ ⊇ τ} w(σ), the conditional partition
// function of the instance.
func Partition(in *gibbs.Instance) (float64, error) {
	return PartitionBudget(in, DefaultBudget)
}

// PartitionBudget is Partition with an explicit enumeration budget.
func PartitionBudget(in *gibbs.Instance, budget int) (float64, error) {
	z := 0.0
	err := enumerate(in, budget, func(_ *state.Lattice, w float64) { z += w })
	if err != nil {
		return 0, err
	}
	return z, nil
}

// IsFeasible reports whether the pinning of the instance is feasible with
// respect to the Gibbs distribution, i.e. extends to a configuration of
// positive weight (the global notion of Definition 2.5).
func IsFeasible(in *gibbs.Instance) (bool, error) {
	z, err := Partition(in)
	if err != nil {
		return false, err
	}
	return z > 0, nil
}

// JointDistribution returns the exact conditional joint distribution µ^τ as
// a sparse table over total configurations.
func JointDistribution(in *gibbs.Instance) (*dist.Joint, error) {
	j := dist.NewJoint(in.N())
	scratch := dist.NewConfig(in.N())
	err := enumerate(in, DefaultBudget, func(l *state.Lattice, w float64) {
		l.ReadChain(0, scratch)
		j.Add(scratch, w) // Add clones the key
	})
	if err != nil {
		return nil, err
	}
	if err := j.Normalize(); err != nil {
		return nil, fmt.Errorf("exact: %w (infeasible pinning?)", err)
	}
	return j, nil
}

// Marginal returns the exact conditional marginal µ^τ_v of vertex v.
// If v is pinned the result is the point mass at its pinned value.
func Marginal(in *gibbs.Instance, v int) (dist.Dist, error) {
	return MarginalBudget(in, v, DefaultBudget)
}

// MarginalBudget is Marginal with an explicit enumeration budget.
func MarginalBudget(in *gibbs.Instance, v int, budget int) (dist.Dist, error) {
	if v < 0 || v >= in.N() {
		return nil, fmt.Errorf("exact: marginal vertex %d out of range", v)
	}
	if x := in.Pinned[v]; x != dist.Unset {
		return dist.Point(in.Q(), x), nil
	}
	w := make([]float64, in.Q())
	err := enumerate(in, budget, func(l *state.Lattice, wt float64) {
		w[l.Get(v, 0)] += wt
	})
	if err != nil {
		return nil, err
	}
	d, err := dist.FromWeights(w)
	if err != nil {
		return nil, fmt.Errorf("exact: marginal at %d: %w", v, err)
	}
	return d, nil
}

// BallMarginal computes the marginal of v within the induced subgraph on the
// vertex set ball, treating every vertex outside the ball as absent and
// every pinned vertex inside the ball as fixed. By the conditional
// independence property (Proposition 2.1), when the pinned vertices inside
// the ball separate v from the outside, this equals the true conditional
// marginal µ^τ_v. This is exactly the within-ball computation performed by
// the algorithms of Lemma 4.1 and Theorem 5.1.
func BallMarginal(in *gibbs.Instance, v int, ball []int) (dist.Dist, error) {
	return BallMarginalBudget(in, v, ball, DefaultBudget)
}

// BallMarginalBudget is BallMarginal with an explicit enumeration budget.
func BallMarginalBudget(in *gibbs.Instance, v int, ball []int, budget int) (dist.Dist, error) {
	n := in.N()
	if v < 0 || v >= n {
		return nil, fmt.Errorf("exact: ball marginal target %d out of range", v)
	}
	if x := in.Pinned[v]; x != dist.Unset {
		return dist.Point(in.Q(), x), nil
	}
	eng := in.Spec.Compiled()
	inBall := make([]bool, n)
	for _, u := range ball {
		if u < 0 || u >= n {
			return nil, fmt.Errorf("exact: ball vertex %d out of range", u)
		}
		inBall[u] = true
	}
	if !inBall[v] {
		return nil, fmt.Errorf("exact: ball marginal target %d not in ball", v)
	}
	// Free variables restricted to the ball; factors restricted to scopes
	// fully inside the ball (w_B in the paper).
	var free []int
	for _, u := range ball {
		if in.Pinned[u] == dist.Unset {
			free = append(free, u)
		}
	}
	active := make([]bool, len(in.Spec.Factors))
	for i, f := range in.Spec.Factors {
		inside := true
		for _, u := range f.Scope {
			if !inBall[u] {
				inside = false
				break
			}
		}
		active[i] = inside
	}
	q := in.Q()
	total := 1.0
	for range free {
		total *= float64(q)
		if total > float64(budget) {
			return nil, fmt.Errorf("%w: ball enumeration q^%d", ErrTooLarge, len(free))
		}
	}
	weights := make([]float64, q)
	lat, err := state.New(n, 1, q)
	if err != nil {
		return nil, err
	}
	if err := lat.SetChain(0, in.Pinned); err != nil {
		return nil, err
	}
	if u8 := lat.Raw8(); u8 != nil {
		ballWalkCells(eng, u8, active, free, v, q, weights)
	} else {
		ballWalkCells(eng, lat.RawWide(), active, free, v, q, weights)
	}
	// An infeasible pinning leaves every weight zero: dist.ErrZeroMass.
	d, err := dist.FromWeights(weights)
	if err != nil {
		return nil, fmt.Errorf("exact: ball marginal at %d: %w", v, err)
	}
	return d, nil
}

// ballWalkCells is the width-specialized within-ball assignment walk of
// BallMarginal: only the active (fully inside the ball) factors
// contribute. As in enumerate, the within-ball weight w_B is maintained
// incrementally: the active factors fully determined by the pinning give
// the root weight, and each active factor at u that became fully assigned
// when u was assigned contributes at u. A zero root weight adds nothing.
func ballWalkCells[T state.Cells](eng *gibbs.Compiled, cells []T, active []bool, free []int, v, q int, weights []float64) {
	base := 1.0
	for i, on := range active {
		if !on {
			continue
		}
		if val, ok := gibbs.EvalFullCells1(eng, i, cells); ok {
			if base *= val; base == 0 {
				return
			}
		}
	}
	unset := dist.Unset // variable, so T(unset) truncates to the cell sentinel
	deltaAt := func(u int) float64 {
		w := 1.0
		for _, fi := range eng.FactorsAt(u) {
			if !active[fi] {
				continue
			}
			val, ok := gibbs.EvalFullCells1(eng, int(fi), cells)
			if !ok {
				continue
			}
			w *= val
			if w == 0 {
				return 0
			}
		}
		return w
	}
	var rec func(i int, w float64)
	rec = func(i int, w float64) {
		if i == len(free) {
			weights[int(cells[v])] += w
			return
		}
		u := free[i]
		for x := 0; x < q; x++ {
			cells[u] = T(x)
			d := deltaAt(u)
			if d == 0 {
				continue
			}
			rec(i+1, w*d)
		}
		cells[u] = T(unset)
	}
	rec(0, base)
}

// CountFeasible returns the number of feasible total configurations (for
// uniform/Boolean-factor distributions this is the counting quantity |Ω_I|
// of the introduction).
func CountFeasible(in *gibbs.Instance) (int, error) {
	n := 0
	err := enumerate(in, DefaultBudget, func(_ *state.Lattice, _ float64) { n++ })
	if err != nil {
		return 0, err
	}
	return n, nil
}

// LogPartition returns ln Z(τ). It errs on infeasible pinnings.
func LogPartition(in *gibbs.Instance) (float64, error) {
	z, err := Partition(in)
	if err != nil {
		return 0, err
	}
	if z <= 0 {
		return 0, gibbs.ErrInfeasible
	}
	return math.Log(z), nil
}
