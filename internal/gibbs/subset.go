package gibbs

// subset.go: the one heat-bath sampling entry point, and the batched
// LocalMetropolis filter. BindVertexSubset binds the fused sweep-plan
// kernel to a lattice; the bound kernel heat-baths one vertex in an
// explicit ascending list of chains. Every dynamic runs it: the batched
// LubyGlauber engine over the chains whose Luby phase the vertex won, the
// ChromaticGlauber engine over slices of one engine-owned list
// {0, …, B−1}, and the sequential Glauber chain and the LOCAL harnesses
// of internal/psample over the one-chain list {0}. A vertex takes one of
// three draws: the cond cache's cumulative rows (cond.go) when the cache
// covers it; else, when its plan is zero-one (plan.go), the mask draw
// (subsetZeroOne), which intersects bitmasks and picks a set bit without
// building a weight row; else the plan walk's weight rows (plan.go,
// bit-identical to CondWeights). Each listed chain draws exactly the
// symbol dist.SampleWeights draws for the same uniform. Every cell the
// kernel reads must hold an in-range symbol, the kernel writes only
// in-range symbols, and all diagnostics for bad weight rows are built off
// the hot path by rowError.
//
// FilterWeightBatch is the LocalMetropolis companion: the subset-product
// filter weight of one acceptance factor evaluated for a dense chain
// block in one pass, amortizing the mixed-radix base and the per-toggled-
// vertex index deltas across the block. The per-chain mask walk keeps the
// order and the early-exit-on-zero of FilterWeight's table walk, so the
// weights are bit-identical to it per chain; the LOCAL harness runs it at
// one chain.

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/dist"
	"repro/internal/state"
)

// VertexSubsetFn is the heat-bath kernel bound to one lattice by
// BindVertexSubset: it heat-baths vertex v in exactly the listed chains —
// conditional weight rows through the sweep plan (or the cond cache),
// then one rng.Float64 draw per listed chain in list order, written
// straight into the lattice. An empty list is a no-op.
type VertexSubsetFn func(v int, chains []int32, buf []float64, sc *BatchScratch, rng *dist.Xoshiro) error

// BindVertexSubset validates the lattice against the engine once and
// returns the width-specialized heat-bath kernel bound to its cells — the
// per-update path of every sampler. The returned function does no
// per-call checks, so the caller owns their contracts: v is a valid
// vertex, chains lists in-range chain indices (ascending for a
// deterministic RNG order), buf holds len(chains)·q entries, sc is a
// scratch of the list size, every cell the kernel reads holds an in-range
// symbol, and the lattice keeps its backing arrays (no grow) for the
// lifetime of the binding. Each listed chain draws exactly the symbol
// dist.SampleWeights draws from CondWeights for the same uniform. Binding
// builds the plan and the cond cache if they are not built yet.
func (c *Compiled) BindVertexSubset(l *state.Lattice) (VertexSubsetFn, error) {
	if l.N() < c.n {
		return nil, fmt.Errorf("gibbs: batch lattice has %d vertices, need %d", l.N(), c.n)
	}
	p, cc := c.Plan(), c.Cond()
	if u8 := l.Raw8(); u8 != nil {
		return bindSubset(c.q, p, cc, u8, l.Chains()), nil
	}
	return bindSubset(c.q, p, cc, l.RawWide(), l.Chains()), nil
}

// bindSubset is BindVertexSubset's kernel over one cell width: the cached
// draw for vertices the cond cache covers, the plan's own draw otherwise.
func bindSubset[T state.Cells](q int, p *SweepPlan, cc *CondCache, cells []T, B int) VertexSubsetFn {
	return func(v int, chains []int32, buf []float64, sc *BatchScratch, rng *dist.Xoshiro) error {
		if len(chains) == 0 {
			return nil
		}
		if cv := cc.at(v); cv != nil {
			return condSampleSubset(q, cv, cells, B, v, chains, sc, rng)
		}
		return sampleSubsetCells(q, &p.verts[v], p.masks, cells, B, v, chains, buf, sc, rng)
	}
}

// sampleSubsetCells is the width-specialized fused body: the mask draw
// for zero-one plans, dedicated draws for the pair-only plans at q = 2 and
// q = 3, the buffered plan walk plus a per-chain threshold draw otherwise.
// masks is the plan's mask pool. The draw reproduces
// dist.SampleWeights semantics — nonpositive entries carry no mass,
// rounding slack falls to the last positive symbol, and bad rows
// (negative, NaN, infinite, or zero-mass) surface as errors built in the
// cold path. The pair-only draws are bit-identical to the generic walk and
// stay because they pay on the vertices the cond cache does not cover:
// routing them through the walk slowed BenchmarkBatchSweep/cond=off/B=32
// by ×1.5 and BenchmarkCondLookup/plan by ×1.3 (medians of 10 interleaved
// pairs at -cpu 1, 2-vCPU Xeon VM, Go 1.24).
func sampleSubsetCells[T state.Cells](q int, vp *vertexPlan, masks []uint64, cells []T, B, v int, chains []int32, w []float64, sc *BatchScratch, rng *dist.Xoshiro) error {
	if vp.zeroOne {
		return subsetZeroOne(q, vp, masks, cells, B, v, chains, w, sc, rng)
	}
	if vp.pairOnly {
		switch q {
		case 2:
			return subsetPairOnlyQ2(vp, cells, B, v, chains, w, rng)
		case 3:
			return subsetPairOnlyQ3(vp, cells, B, v, chains, rng)
		}
	}
	subsetWeightRow(q, vp, cells, B, chains, w, sc)
	vbase := v * B
	if q == 2 {
		for i, ch := range chains {
			w0, w1 := w[2*i], w[2*i+1]
			total := w0 + w1
			if !(w0 >= 0 && w1 >= 0 && total > 0 && total <= math.MaxFloat64) {
				return rowError(w[2*i:2*i+2], v, int(ch))
			}
			// w0 ≥ 0 was just validated, so "w0 > 0 && u < w0" is
			// exactly "u < w0" (u ≥ 0 can never undercut a zero w0) and
			// the select is two set-flags ANDed — no branch to mispredict
			// on the random threshold outcome.
			u := rng.Float64() * total
			var ge, pos uint8
			if u >= w0 {
				ge = 1
			}
			if w1 > 0 {
				pos = 1
			}
			cells[vbase+int(ch)] = T(ge & pos)
		}
		return nil
	}
	for i, ch := range chains {
		row := w[i*q : (i+1)*q]
		total := 0.0
		ok := true
		for _, x := range row {
			if !(x >= 0) {
				ok = false
				break
			}
			total += x
		}
		if !ok || !(total > 0 && total <= math.MaxFloat64) {
			return rowError(row, v, int(ch))
		}
		u := rng.Float64() * total
		acc := 0.0
		last := -1
		for x, wx := range row {
			if wx <= 0 {
				continue
			}
			last = x
			acc += wx
			if u < acc {
				break
			}
		}
		cells[vbase+int(ch)] = T(last)
	}
	return nil
}

// subsetZeroOne is the mask draw of a zero-one plan. Per chain it ANDs the
// prior's support with each op's mask — for a pair op the word of u's
// symbol — and takes the j-th of the k surviving symbols,
// j = ⌊Float64()·k⌋. That is the symbol the plan walk's cumulative scan
// picks: every weight is exactly 0 or 1, so the total is exactly k and
// the running sum after the i-th allowed symbol is exactly i, and the scan
// stops at the first one whose sum exceeds u = Float64()·k, the ⌊u⌋-th.
// Float64()·k < k for every k ≤ 64 (the product of 1 − 2⁻⁵³ and k rounds
// below k), so the clamp to k − 1 never binds. A chain left with no
// symbol gets the plan walk's row rebuilt into w and its exact rowError,
// before its uniform is drawn.
func subsetZeroOne[T state.Cells](q int, vp *vertexPlan, masks []uint64, cells []T, B, v int, chains []int32, w []float64, sc *BatchScratch, rng *dist.Xoshiro) error {
	prior := masks[vp.pm]
	ops := vp.ops
	vbase := v * B
	for i, ch := range chains {
		c := int(ch)
		m := prior
		for oi := range ops {
			op := &ops[oi]
			if op.kind == opPair {
				m &= masks[int(op.mo)+int(cells[int(op.u)*B+c])]
			} else {
				m &= masks[op.mo]
			}
		}
		k := bits.OnesCount64(m)
		if k == 0 {
			subsetWeightRow(q, vp, cells, B, chains[i:i+1], w, sc)
			return rowError(w[:q], v, c)
		}
		for j := min(int(rng.Float64()*float64(k)), k-1); j > 0; j-- {
			m &= m - 1
		}
		cells[vbase+c] = T(bits.TrailingZeros64(m))
	}
	return nil
}

// subsetPairOnlyQ2 is the pair-only draw at q = 2. The walk runs
// ops-outer over the list — op fields decoded once, the per-chain
// dependent multiply chains pipelined across chains in two buffer columns
// — but each chain still sees prior then ops in factor order
// (bit-identical weights), and the threshold draws consume one uniform
// per chain in list order.
func subsetPairOnlyQ2[T state.Cells](vp *vertexPlan, cells []T, B, v int, chains []int32, buf []float64, rng *dist.Xoshiro) error {
	p0, p1 := 1.0, 1.0
	if vp.prior != nil {
		p0, p1 = vp.prior[0], vp.prior[1]
	}
	nb := len(chains)
	w0 := buf[:nb]
	w1 := buf[nb : 2*nb]
	for j := range w0 {
		w0[j] = p0
		w1[j] = p1
	}
	ops := vp.ops
	for oi := range ops {
		op := &ops[oi]
		if op.kind == opPair {
			table, su, sv := op.table, op.su, op.sv
			ubase := int(op.u) * B
			if len(table) == 4 {
				// The 2×2 pair table as a fixed array: masked indices
				// (always < 4 — cells hold symbols below q) let every
				// lookup run without a bounds check.
				t := (*[4]float64)(table)
				for j, ch := range chains {
					bi := (int32(cells[ubase+int(ch)]) * su) & 3
					w0[j] *= t[bi]
					w1[j] *= t[(bi+sv)&3]
				}
				continue
			}
			for j, ch := range chains {
				bi := int32(cells[ubase+int(ch)]) * su
				w0[j] *= table[bi]
				w1[j] *= table[bi+sv]
			}
		} else {
			r0, r1 := op.table[0], op.table[1]
			for j := range w0 {
				w0[j] *= r0
				w1[j] *= r1
			}
		}
	}
	vbase := v * B
	for j, ch := range chains {
		a, b := w0[j], w1[j]
		total := a + b
		if !(a >= 0 && b >= 0 && total > 0 && total <= math.MaxFloat64) {
			return rowError([]float64{a, b}, v, int(ch))
		}
		// Same branchless select as the generic q = 2 loop: a ≥ 0 is
		// validated, so the drawn symbol is 1 exactly when u clears a and
		// symbol 1 carries weight.
		u := rng.Float64() * total
		var ge, pos uint8
		if u >= a {
			ge = 1
		}
		if b > 0 {
			pos = 1
		}
		cells[vbase+int(ch)] = T(ge & pos)
	}
	return nil
}

// subsetPairOnlyQ3 is the pair-only draw at q = 3: per chain the weight
// triple starts at the prior and every op multiplies in, in factor order
// (bit-identical weights, held in registers), and the three-symbol walk
// is inlined with sampleWalk semantics.
func subsetPairOnlyQ3[T state.Cells](vp *vertexPlan, cells []T, B, v int, chains []int32, rng *dist.Xoshiro) error {
	p0, p1, p2 := 1.0, 1.0, 1.0
	if vp.prior != nil {
		p0, p1, p2 = vp.prior[0], vp.prior[1], vp.prior[2]
	}
	ops := vp.ops
	vbase := v * B
	for _, ch := range chains {
		c := int(ch)
		w0, w1, w2 := p0, p1, p2
		for oi := range ops {
			op := &ops[oi]
			if op.kind == opPair {
				bi := int32(cells[int(op.u)*B+c]) * op.su
				w0 *= op.table[bi]
				w1 *= op.table[bi+op.sv]
				w2 *= op.table[bi+2*op.sv]
			} else {
				w0 *= op.table[0]
				w1 *= op.table[1]
				w2 *= op.table[2]
			}
		}
		total := w0 + w1 + w2
		if !(w0 >= 0 && w1 >= 0 && w2 >= 0 && total > 0 && total <= math.MaxFloat64) {
			return rowError([]float64{w0, w1, w2}, v, c)
		}
		u := rng.Float64() * total
		var x T
		switch {
		case u < w0:
			x = 0
		case u < w0+w1:
			x = 1
		case w2 > 0:
			x = 2
		case w1 > 0:
			x = 1
		default:
			x = 0
		}
		cells[vbase+c] = x
	}
	return nil
}

// FilterWeightBatch fills out[0:c1−c0] with the LocalMetropolis filter
// weights of acceptance factor i between chains c of old (current) and
// prop (proposal), c0 ≤ c < c1 — for each chain exactly FilterWeight on
// that chain's two configurations, bit for bit. The factor must be
// table-backed (ErrNotTabled otherwise; closure-backed acceptance factors
// are rejected upstream by the rules compiler). Every cell the kernel
// reads — the factor's scope in both lattices — must hold an in-range
// symbol: the kernel has no per-cell validity checks, exactly like the
// plan kernels. sc amortizes the base and delta rows (nil allocates).
func (c *Compiled) FilterWeightBatch(i int, old, prop *state.Lattice, c0, c1 int, verts []int, out []float64, sc *BatchScratch) error {
	if i < 0 || i >= len(c.factors) {
		return fmt.Errorf("gibbs: filter factor %d out of range", i)
	}
	nb := c1 - c0
	if c0 < 0 || nb <= 0 || c1 > old.Chains() || c1 > prop.Chains() {
		return fmt.Errorf("gibbs: filter chain range [%d,%d) invalid for B=%d/%d", c0, c1, old.Chains(), prop.Chains())
	}
	if old.N() < c.n || prop.N() < c.n {
		return fmt.Errorf("gibbs: filter lattices have %d/%d vertices, need %d", old.N(), prop.N(), c.n)
	}
	if len(out) < nb {
		return fmt.Errorf("gibbs: filter output has %d entries, need c1−c0 = %d", len(out), nb)
	}
	k := len(verts)
	if k == 0 {
		for i := range out[:nb] {
			out[i] = 1
		}
		return nil
	}
	if k > filterMaxToggle {
		return fmt.Errorf("gibbs: filter over %d toggled vertices (max %d)", k, filterMaxToggle)
	}
	f := &c.factors[i]
	if f.table == nil {
		return fmt.Errorf("gibbs: filter factor %d: %w", i, ErrNotTabled)
	}
	if sc == nil || len(sc.base) < nb {
		sc = NewBatchScratch(nb)
	}
	if o8, p8 := old.Raw8(), prop.Raw8(); o8 != nil && p8 != nil {
		return filterBatchCells(f, o8, old.Chains(), p8, prop.Chains(), c0, c1, verts, out[:nb], sc)
	}
	if ow, pw := old.RawWide(), prop.RawWide(); ow != nil && pw != nil {
		return filterBatchCells(f, ow, old.Chains(), pw, prop.Chains(), c0, c1, verts, out[:nb], sc)
	}
	return fmt.Errorf("gibbs: filter lattices have mixed cell representations")
}

// filterBatchCells is the width-specialized batched filter body: the
// all-old base index accumulates vectorized over the chain block (one
// multiply-add per scope occurrence per chain, contiguous reads), each
// toggled vertex's index delta likewise, and then each chain runs the
// mask walk — same mask order, same multiplication order, same early
// exit on a zero term as FilterWeight's table walk.
func filterBatchCells[T state.Cells](f *cfactor, old []T, oB int, prop []T, pB int, c0, c1 int, verts []int, out []float64, sc *BatchScratch) error {
	nb := c1 - c0
	if len(verts) == 2 && len(f.scope) == 2 &&
		((int(f.scope[0]) == verts[0] && int(f.scope[1]) == verts[1]) ||
			(int(f.scope[0]) == verts[1] && int(f.scope[1]) == verts[0])) {
		// Pair factor with both scope vertices toggled — the whole grid
		// of every pairwise interaction model. The three mask terms are
		// direct table lookups at the mixed old/new indices, so the walk
		// collapses to one pass over the four cell rows: no base or
		// delta scratch, no per-mask bit loop. Multiplication order is
		// the mask order 01, 10, 11 of the generic walk (bit-identical
		// for the finite nonnegative tables the compiler admits).
		var s0, s1 int32
		if int(f.scope[0]) == verts[0] {
			s0, s1 = f.strides[0], f.strides[1]
		} else {
			s0, s1 = f.strides[1], f.strides[0]
		}
		o0 := old[verts[0]*oB+c0 : verts[0]*oB+c1]
		o1 := old[verts[1]*oB+c0 : verts[1]*oB+c1]
		n0 := prop[verts[0]*pB+c0 : verts[0]*pB+c0+nb]
		n1 := prop[verts[1]*pB+c0 : verts[1]*pB+c0+nb]
		res := out[:nb]
		if t := f.table; len(t) == 4 {
			// 2×2 table as a fixed array: masked indices (always < 4 —
			// cells hold symbols below q) skip the bounds checks.
			ta := (*[4]float64)(t)
			for i := range res {
				a0 := int32(o0[i]) * s0
				a1 := int32(o1[i]) * s1
				b0 := int32(n0[i]) * s0
				b1 := int32(n1[i]) * s1
				w := ta[(b0+a1)&3]
				w *= ta[(a0+b1)&3]
				w *= ta[(b0+b1)&3]
				res[i] = w
			}
			return nil
		}
		t := f.table
		for i := range res {
			a0 := int32(o0[i]) * s0
			a1 := int32(o1[i]) * s1
			b0 := int32(n0[i]) * s0
			b1 := int32(n1[i]) * s1
			w := t[b0+a1]
			w *= t[a0+b1]
			w *= t[b0+b1]
			res[i] = w
		}
		return nil
	}
	base := sc.base[:nb]
	for i := range base {
		base[i] = 0
	}
	for j, u := range f.scope {
		row := old[int(u)*oB+c0 : int(u)*oB+c1]
		st := f.strides[j]
		for i, x := range row {
			base[i] += int32(x) * st
		}
	}
	k := len(verts)
	deltas := sc.deltaBuf(k * nb)
	for b, d := range verts {
		drow := deltas[b*nb : (b+1)*nb]
		for i := range drow {
			drow[i] = 0
		}
		found := false
		for j, u := range f.scope {
			if int(u) != d {
				continue
			}
			found = true
			st := f.strides[j]
			orow := old[d*oB+c0 : d*oB+c1]
			prow := prop[d*pB+c0 : d*pB+c1]
			for i := range orow {
				drow[i] += (int32(prow[i]) - int32(orow[i])) * st
			}
		}
		if !found {
			return fmt.Errorf("gibbs: filter: vertex %d not in factor scope", d)
		}
	}
	table := f.table
	for i := 0; i < nb; i++ {
		w := 1.0
		bi := base[i]
		for mask := 1; mask < 1<<k; mask++ {
			idx := bi
			for b := 0; b < k; b++ {
				if mask&(1<<b) != 0 {
					idx += deltas[b*nb+i]
				}
			}
			w *= table[idx]
			if w == 0 {
				break
			}
		}
		out[i] = w
	}
	return nil
}
