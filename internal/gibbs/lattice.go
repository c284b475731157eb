package gibbs

// lattice.go: factor evaluation over the compact state container
// (internal/state.Lattice) for the exact enumerator — EvalFull and
// PartialWeight(At) reading cells instead of a dist.Config. The sampling
// kernels live in plan.go, subset.go and cond.go; the dist.Config kernels
// (CondWeights, FilterWeight) stay the API boundary and the referees the
// sampling kernels are pinned to. Each kernel branches once on the
// lattice representation and runs a width-specialized body (generic over
// state.Cells), so the compact path reads one byte per cell with the
// mixed-radix index math done directly on the cell type.

import "repro/internal/state"

// EvalFullLattice evaluates factor i on chain `chain` of the lattice,
// requiring every scope vertex assigned; ok is false otherwise — the
// lattice equivalent of EvalFull.
func (c *Compiled) EvalFullLattice(i int, l *state.Lattice, chain int) (val float64, ok bool) {
	if u8 := l.Raw8(); u8 != nil {
		return evalFullCells(c, i, u8, l.Chains(), chain)
	}
	return evalFullCells(c, i, l.RawWide(), l.Chains(), chain)
}

// EvalFullCells1 and PartialWeightAtCells1 read a pre-dispatched
// single-chain (B = 1) cell array, so the caller branches on the
// representation once per walk instead of once per factor evaluation and
// the cell index is the vertex itself — this is the exact enumerator's
// hot call, executed once per (node, symbol) of the assignment tree.
func EvalFullCells1[T state.Cells](c *Compiled, i int, cells []T) (float64, bool) {
	return evalFullCells1(c, i, cells)
}

func evalFullCells1[T state.Cells](c *Compiled, i int, cells []T) (float64, bool) {
	f := &c.factors[i]
	q := c.q
	if f.table != nil {
		idx := int32(0)
		for j, u := range f.scope {
			x := cells[u]
			if !state.Valid(x, q) {
				return 0, false
			}
			idx += int32(x) * f.strides[j]
		}
		return f.table[idx], true
	}
	assign := make([]int, len(f.scope))
	for j, u := range f.scope {
		x := cells[u]
		if !state.Valid(x, q) {
			return 0, false
		}
		assign[j] = int(x)
	}
	return f.eval(assign), true
}

// PartialWeightAtCells1 returns the product of the factors containing v
// whose scopes are fully assigned in the cell array — the incremental
// enumeration delta of PartialWeightAt.
func PartialWeightAtCells1[T state.Cells](c *Compiled, cells []T, v int) float64 {
	w := 1.0
	for _, i := range c.FactorsAt(v) {
		val, ok := evalFullCells1(c, int(i), cells)
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

// evalFullCells is the width-specialized factor evaluation body.
func evalFullCells[T state.Cells](c *Compiled, i int, cells []T, B, chain int) (float64, bool) {
	f := &c.factors[i]
	q := c.q
	if f.table != nil {
		idx := int32(0)
		for j, u := range f.scope {
			x := cells[int(u)*B+chain]
			if !state.Valid(x, q) {
				return 0, false
			}
			idx += int32(x) * f.strides[j]
		}
		return f.table[idx], true
	}
	assign := make([]int, len(f.scope))
	for j, u := range f.scope {
		x := cells[int(u)*B+chain]
		if !state.Valid(x, q) {
			return 0, false
		}
		assign[j] = int(x)
	}
	return f.eval(assign), true
}

// PartialWeightLattice returns the product of the factors whose scopes are
// fully assigned under chain `chain` of the lattice — the lattice
// equivalent of PartialWeight.
func (c *Compiled) PartialWeightLattice(l *state.Lattice, chain int) float64 {
	w := 1.0
	for i := range c.factors {
		val, ok := c.EvalFullLattice(i, l, chain)
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
