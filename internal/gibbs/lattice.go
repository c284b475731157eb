package gibbs

// lattice.go: factor evaluation over the cells of a one-chain state
// container (internal/state.Lattice) for the exact enumerator — EvalFull
// and PartialWeight(At) reading cells instead of a dist.Config. The
// sampling kernels live in plan.go, subset.go and cond.go; the
// dist.Config kernels (CondWeights, FilterWeight) stay the API boundary
// and the referees the sampling kernels are pinned to. The caller branches
// once on the lattice representation and runs these forms generic over
// state.Cells, so the compact path reads one byte per cell with the
// mixed-radix index math done directly on the cell type.

import "repro/internal/state"

// EvalFullCells1, PartialWeightCells1 and PartialWeightAtCells1 read a
// pre-dispatched single-chain (B = 1) cell array, so the caller branches
// on the representation once per walk instead of once per factor
// evaluation and the cell index is the vertex itself. EvalFullCells1
// evaluates factor i, requiring every scope vertex assigned (ok is false
// otherwise) — the cell form of EvalFull and the exact enumerator's hot
// call, executed once per (node, symbol) of the assignment tree.
func EvalFullCells1[T state.Cells](c *Compiled, i int, cells []T) (float64, bool) {
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

// PartialWeightCells1 returns the product of the factors whose scopes are
// fully assigned in the cell array — the cell form of PartialWeight, the
// enumerator's root weight.
func PartialWeightCells1[T state.Cells](c *Compiled, cells []T) float64 {
	w := 1.0
	for i := range c.factors {
		val, ok := EvalFullCells1(c, i, cells)
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

// PartialWeightAtCells1 returns the product of the factors containing v
// whose scopes are fully assigned in the cell array — the incremental
// enumeration delta of PartialWeightAt.
func PartialWeightAtCells1[T state.Cells](c *Compiled, cells []T, v int) float64 {
	w := 1.0
	for _, i := range c.FactorsAt(v) {
		val, ok := EvalFullCells1(c, int(i), cells)
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
