package gibbs

// plan.go compiles each vertex's factor walk into a flat sweep plan and
// walks it for a list of chains — the "run the hot loop at hardware
// speed" layer on top of the chain-major lattice.
//
// Interpreting the factor graph per update means walking FactorsAt(v),
// re-deriving which scope entries are v, re-reading unary factors that
// cannot differ between chains, and validating every cell touched — what
// CondWeights, the dist.Config referee, still does. A SweepPlan does that
// interpretation exactly once per Compiled: for each vertex the prefix run
// of unary factors is folded into a single precomputed per-symbol prior
// row, each dense pair factor is lowered to a flat gather (neighbor row,
// accumulated strides, table), factors of three or more distinct vertices
// keep a generic entry, and closure-backed factors keep a fallback entry —
// so the hot loop is a straight run over a flat instruction stream with no
// dispatch and no per-cell checks. The stream's ops hold only what the
// draws read (48 bytes each); the scope lists of generic entries and the
// factors of fallback entries sit off the stream in one side slab. Every multiplication happens in the
// same order as CondWeights, so planned weights are bit-identical to it
// (pinned by the root-level property test across all model builders).
//
// subsetWeightRow is the one plan walk. The heat-bath kernel bound by
// BindVertexSubset (subset.go) draws from its rows, the cond-cache build
// (cond.go) enumerates them once per neighborhood code, and
// CondWeightsBatchPlan hands them to the bit-identity tests.
//
// A vertex takes one of three draws, decided by its plan and the cache
// alone: the cached draw when the cond cache covers it; else the mask draw
// when its plan is zero-one (4 ≤ q ≤ 64, only pair and unary ops, every
// weight they read exactly 0 or 1 — proper and list colourings), which
// ANDs bitmasks from the plan's shared pool instead of building a weight
// row; else the plan walk. All three draw the same symbol for the same
// uniform.
//
// Validity is the caller's contract: every cell the walk reads must hold
// an in-range symbol. The batched engines establish it with one
// state.Lattice.CheckAssigned preflight per Reset (sampled symbols are
// always in range, so it covers every subsequent stage); the LOCAL
// harnesses of internal/psample, whose per-node views are partial, by
// receiving every neighbor's spin before the first update. That contract
// is what lets the innermost loops drop per-(neighbor, chain) checks.

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dist"
	"repro/internal/state"
)

// planOpKind discriminates the flat instruction stream of a vertexPlan.
type planOpKind uint8

const (
	// opUnary multiplies a precomputed chain-independent per-symbol row —
	// a unary factor that appears after the first non-unary factor, so it
	// cannot be folded into the prior without reordering multiplications.
	opUnary planOpKind = iota
	// opPair is a dense table factor with exactly one distinct scope
	// vertex besides v: one gather per chain.
	opPair
	// opGeneric is a dense table factor with two or more distinct scope
	// vertices besides v: mixed-radix base accumulation per chain.
	opGeneric
	// opClosure evaluates an uncompiled factor through its closure.
	opClosure
)

// planOp is one instruction of a vertex's sweep plan: the fields the draw
// paths read, in 48 bytes. Fields are populated by kind; table aliases the
// Compiled engine and is never written. What only the plan walk reads of
// a generic or closure op (its scope lists, its factor) lives in the
// plan's side slab, which ext indexes, so the pair and unary ops that the
// q = 2/3 draws and the mask draw scan stay small.
type planOp struct {
	kind planOpKind
	// u is the neighbor vertex (opPair) or the plan's own vertex
	// (opClosure, where the scope needs the candidate symbol substituted).
	u int32
	// su is the accumulated stride of u's scope occurrences (opPair); the
	// per-chain table base is cell(u)·su, exactly the occurrence-by-
	// occurrence sum of the interpreted kernel (int32 distributivity).
	su int32
	// sv is the accumulated stride of v's occurrences (opPair, opGeneric).
	sv int32
	// mo is the offset of the op's mask in the plan's pool (zero-one plans
	// only): q words for opPair, word y holding the symbols the table
	// allows at v while u holds y, and one word for opUnary, the row's
	// support.
	mo int32
	// ext is the index of the op's opSide in the plan's side slab
	// (opGeneric, opClosure).
	ext int32
	// table is the dense factor table (opPair, opGeneric) or the
	// per-symbol factor row (opUnary).
	table []float64
}

// opSide is the part of a generic or closure op that no draw path but the
// plan walk reads (the cond-cache build reads it too).
type opSide struct {
	// scope/strides are the non-v scope occurrences (opGeneric), in scope
	// order so the base accumulates in the interpreted kernel's order.
	scope   []int32
	strides []int32
	// f is the compiled factor (opClosure).
	f *cfactor
}

// vertexPlan is the compiled conditional of one vertex: weights start at
// the prior row (all-ones when nil) and each op multiplies in, in factor
// index order. pairOnly marks plans whose every op is a pair gather or a
// unary row — the all-pairwise case (hardcore, Ising, colorings) — which
// the sampling kernel draws at q = 2 and q = 3 without the generic weight
// walk (subset.go). zeroOne marks the pair-only plans at
// minMaskQ ≤ q ≤ maxMaskQ whose prior, rows and read table entries are all
// exactly 0 or 1: their conditional is a set, drawn from bitmasks, with pm
// the offset of the prior's support word in the plan's pool. plan is the
// SweepPlan the vertex plan belongs to, whose side slab the generic and
// closure ops index.
type vertexPlan struct {
	prior    []float64
	ops      []planOp
	plan     *SweepPlan
	pairOnly bool
	zeroOne  bool
	pm       int32
}

// SweepPlan holds one vertexPlan per vertex of a Compiled engine. It is
// immutable after construction and safe for concurrent use.
type SweepPlan struct {
	q     int
	verts []vertexPlan
	// masks is the one pool every zero-one plan's words live in.
	masks []uint64
	// side is the side slab: one opSide per generic or closure op, in
	// plan order (nil on pairwise instances).
	side []opSide
}

// The alphabet range of zero-one plans: a uint64 word holds a mask up to
// q = 64, and at q = 2 and q = 3 the pair-only draws are faster.
const (
	minMaskQ = 4
	maxMaskQ = 64
)

// Plan returns the engine's sweep plan, building it on first call.
func (c *Compiled) Plan() *SweepPlan {
	c.planOnce.Do(func() { c.plan = buildPlan(c) })
	return c.plan
}

// buildPlan lowers every vertex's factor list into a vertexPlan. It counts
// every plan's ops first (opCount), so the ops of all vertices fill one
// exactly sized slab, each vertex's share capped at its length; the scope
// scratch is reused across factors, and only generic ops keep copies of
// it, in the side slab.
func buildPlan(c *Compiled) *SweepPlan {
	p := &SweepPlan{q: c.q, verts: make([]vertexPlan, c.n)}
	var mp *maskPool
	if c.q >= minMaskQ && c.q <= maxMaskQ {
		mp = &maskPool{q: c.q, rows: map[maskKey]int32{}, words: map[uint64]int32{}}
	}
	nops := 0
	for v := 0; v < c.n; v++ {
		nops += c.opCount(v)
	}
	ops := make([]planOp, nops)
	var others []int32  // distinct non-v scope vertices
	var gScope []int32  // non-v occurrences, in scope order
	var gStride []int32 // their strides
	var rows rowPool
	// prior is the vertex at hand's folded prior, urow the factor at hand's
	// unary row.
	scratch := make([]float64, 2*c.q)
	prior, urow := scratch[:c.q], scratch[c.q:]
	for v := 0; v < c.n; v++ {
		vp := &p.verts[v]
		vp.plan = p
		if n := c.opCount(v); n > 0 {
			vp.ops, ops = ops[:0:n], ops[n:]
		}
		folded := false
		for _, fi := range c.FactorsAt(v) {
			f := &c.factors[fi]
			sv := int32(0)
			others, gScope, gStride = others[:0], gScope[:0], gStride[:0]
			su := int32(0)
			for j, u := range f.scope {
				if int(u) == v {
					sv += f.strides[j]
					continue
				}
				gScope = append(gScope, u)
				gStride = append(gStride, f.strides[j])
				su += f.strides[j]
				seen := false
				for _, o := range others {
					if o == u {
						seen = true
						break
					}
				}
				if !seen {
					others = append(others, u)
				}
			}
			if len(others) == 0 {
				// Unary in v: the factor row is chain-independent, so it is
				// evaluated once here. While no other op has been emitted,
				// fold it into the prior — weights start at 1 and 1·a = a
				// exactly, so prior[x] accumulates the same float sequence
				// the interpreted kernel produces. A unary factor appearing
				// after a non-unary one keeps its stream position as opUnary.
				unaryRow(f, c.q, sv, urow)
				if len(vp.ops) == 0 {
					if !folded {
						copy(prior, urow)
						folded = true
					} else {
						for x := range prior {
							prior[x] *= urow[x]
						}
					}
					continue
				}
				vp.ops = append(vp.ops, planOp{kind: opUnary, table: rows.intern(urow)})
				continue
			}
			if f.table == nil {
				// Closure ops keep the whole scope; u records v itself so
				// the evaluation loop can substitute the candidate symbol.
				vp.ops = append(vp.ops, planOp{kind: opClosure, u: int32(v), ext: int32(len(p.side))})
				p.side = append(p.side, opSide{f: f})
				continue
			}
			if len(others) == 1 {
				vp.ops = append(vp.ops, planOp{kind: opPair, u: others[0], su: su, sv: sv, table: f.table})
				continue
			}
			scope := make([]int32, len(gScope))
			strides := make([]int32, len(gStride))
			copy(scope, gScope)
			copy(strides, gStride)
			vp.ops = append(vp.ops, planOp{kind: opGeneric, sv: sv, table: f.table, ext: int32(len(p.side))})
			p.side = append(p.side, opSide{scope: scope, strides: strides})
		}
		if folded {
			vp.prior = rows.intern(prior)
		}
		vp.pairOnly = true
		for _, op := range vp.ops {
			if op.kind != opPair && op.kind != opUnary {
				vp.pairOnly = false
				break
			}
		}
		if vp.pairOnly && mp != nil {
			vp.zeroOne = mp.lower(vp)
		}
	}
	if mp != nil {
		p.masks = mp.pool
	}
	return p
}

// opCount returns how many ops vertex v's plan holds: every factor from
// the first one that is not unary in v on. The unary factors before it
// fold into the prior.
func (c *Compiled) opCount(v int) int {
	fs := c.FactorsAt(v)
	for i, fi := range fs {
		for _, u := range c.factors[fi].scope {
			if int(u) != v {
				return len(fs) - i
			}
		}
	}
	return 0
}

// maskPool builds the bitmasks of the zero-one plans into one slice. Each
// distinct (table, su, sv) gets one mask row and each distinct word one
// slot, so all edges of a colouring share the rows of its one disequality
// table.
type maskPool struct {
	q     int
	pool  []uint64
	rows  map[maskKey]int32 // offset of a pair row, −1 when not zero-one
	words map[uint64]int32  // offset of a support word
}

// maskKey identifies the entries an opPair reads: table[y·su + x·sv].
type maskKey struct {
	table  *float64
	su, sv int32
}

// lower assigns the pool offsets of a pair-only plan and reports whether
// it is zero-one. A plan that is not leaves offsets nobody reads.
func (mp *maskPool) lower(vp *vertexPlan) bool {
	prior := ^uint64(0) >> (64 - mp.q)
	if vp.prior != nil {
		var ok bool
		if prior, ok = support(vp.prior); !ok {
			return false
		}
	}
	vp.pm = mp.word(prior)
	for oi := range vp.ops {
		op := &vp.ops[oi]
		if op.kind == opUnary {
			m, ok := support(op.table)
			if !ok {
				return false
			}
			op.mo = mp.word(m)
			continue
		}
		key := maskKey{&op.table[0], op.su, op.sv}
		off, seen := mp.rows[key]
		if !seen {
			off = mp.pairRow(op.table, op.su, op.sv)
			mp.rows[key] = off
		}
		if off < 0 {
			return false
		}
		op.mo = off
	}
	return true
}

// pairRow appends the q mask words of a pair table — word y holds the x
// with table[y·su + x·sv] = 1 — and returns their offset, or −1 (appending
// nothing) when a read entry is neither 0 nor 1.
func (mp *maskPool) pairRow(table []float64, su, sv int32) int32 {
	off := len(mp.pool)
	for y := int32(0); y < int32(mp.q); y++ {
		var m uint64
		for x := int32(0); x < int32(mp.q); x++ {
			switch table[y*su+x*sv] {
			case 1:
				m |= 1 << x
			case 0:
			default:
				mp.pool = mp.pool[:off]
				return -1
			}
		}
		mp.pool = append(mp.pool, m)
	}
	return int32(off)
}

// word returns the offset of the support word m, adding it on first use.
func (mp *maskPool) word(m uint64) int32 {
	off, ok := mp.words[m]
	if !ok {
		off = int32(len(mp.pool))
		mp.pool = append(mp.pool, m)
		mp.words[m] = off
	}
	return off
}

// support returns the set of symbols whose row entry is 1, and false when
// an entry is neither 0 nor 1.
func support(row []float64) (uint64, bool) {
	var m uint64
	for x, w := range row {
		switch w {
		case 1:
			m |= 1 << x
		case 0:
		default:
			return 0, false
		}
	}
	return m, true
}

// unaryRow writes into row (length q) the per-symbol row of a factor unary
// in its vertex (sv is the accumulated stride of the vertex's
// occurrences).
func unaryRow(f *cfactor, q int, sv int32, row []float64) {
	if f.table != nil {
		for x := int32(0); x < int32(q); x++ {
			row[x] = f.table[x*sv]
		}
		return
	}
	assign := make([]int, len(f.scope))
	for x := 0; x < q; x++ {
		for j := range assign {
			assign[j] = x
		}
		row[x] = f.eval(assign)
	}
}

// rowPool interns a plan's unary rows — folded priors and opUnary tables —
// by their bits, so vertices whose rows are equal bit for bit share one
// immutable row: heads maps a hash of a row's bits to the newest kept row
// with that hash, and next[i] links kept row i to the previous one (−1 at
// the end of the chain). A hash only picks candidates; sameBits compares
// them in full.
type rowPool struct {
	heads map[uint64]int32
	kept  [][]float64
	next  []int32
}

// intern returns the kept row equal to row bit for bit, keeping a copy of
// row when there is none. row itself is scratch the caller reuses.
func (rp *rowPool) intern(row []float64) []float64 {
	h := uint64(len(row))
	for _, x := range row {
		h = mix(h, math.Float64bits(x))
	}
	if rp.heads == nil {
		rp.heads = map[uint64]int32{}
	}
	head, ok := rp.heads[h]
	if !ok {
		head = -1
	}
	for i := head; i >= 0; i = rp.next[i] {
		if sameBits(rp.kept[i], row) {
			return rp.kept[i]
		}
	}
	kept := slices.Clone(row)
	rp.heads[h] = int32(len(rp.kept))
	rp.kept = append(rp.kept, kept)
	rp.next = append(rp.next, head)
	return kept
}

// subsetWeightRow fills w (length len(chains)·q) with the conditional
// weight rows of the vertex plan vp for the listed chains, row i for
// chain chains[i] — the width-specialized straight-line body shared by the
// sampling kernel, the cond-cache build and CondWeightsBatchPlan. Every
// per-chain access is an indexed gather cells[u·B + chains[i]]. Every cell
// the plan reads must hold an in-range symbol; the only diagnostics left
// in here are Go's bounds checks.
func subsetWeightRow[T state.Cells](q int, vp *vertexPlan, cells []T, B int, chains []int32, w []float64, sc *BatchScratch) {
	nb := len(chains)
	if vp.prior == nil {
		for i := range w[:nb*q] {
			w[i] = 1
		}
	} else {
		for i := 0; i < nb; i++ {
			copy(w[i*q:(i+1)*q], vp.prior)
		}
	}
	q32 := int32(q)
	for oi := range vp.ops {
		op := &vp.ops[oi]
		switch op.kind {
		case opUnary:
			urow := op.table
			for i := 0; i < nb; i++ {
				row := w[i*q : (i+1)*q]
				for x := range row {
					row[x] *= urow[x]
				}
			}
		case opPair:
			ubase := int(op.u) * B
			table, su, sv := op.table, op.su, op.sv
			switch q32 {
			case 2:
				for i, ch := range chains {
					bi := int32(cells[ubase+int(ch)]) * su
					row := w[2*i : 2*i+2 : 2*i+2]
					row[0] *= table[bi]
					row[1] *= table[bi+sv]
				}
			case 3:
				for i, ch := range chains {
					bi := int32(cells[ubase+int(ch)]) * su
					row := w[3*i : 3*i+3 : 3*i+3]
					row[0] *= table[bi]
					row[1] *= table[bi+sv]
					row[2] *= table[bi+2*sv]
				}
			default:
				for i, ch := range chains {
					bi := int32(cells[ubase+int(ch)]) * su
					row := w[i*q : (i+1)*q]
					for x := int32(0); x < q32; x++ {
						row[x] *= table[bi+x*sv]
					}
				}
			}
		case opGeneric:
			side := &vp.plan.side[op.ext]
			base := sc.base[:nb]
			for i := range base {
				base[i] = 0
			}
			for j, u := range side.scope {
				ubase := int(u) * B
				st := side.strides[j]
				for i, ch := range chains {
					base[i] += int32(cells[ubase+int(ch)]) * st
				}
			}
			table, sv := op.table, op.sv
			switch q32 {
			case 2:
				for i := 0; i < nb; i++ {
					bi := base[i]
					row := w[2*i : 2*i+2 : 2*i+2]
					row[0] *= table[bi]
					row[1] *= table[bi+sv]
				}
			case 3:
				for i := 0; i < nb; i++ {
					bi := base[i]
					row := w[3*i : 3*i+3 : 3*i+3]
					row[0] *= table[bi]
					row[1] *= table[bi+sv]
					row[2] *= table[bi+2*sv]
				}
			default:
				for i := 0; i < nb; i++ {
					bi := base[i]
					row := w[i*q : (i+1)*q]
					for x := int32(0); x < q32; x++ {
						row[x] *= table[bi+x*sv]
					}
				}
			}
		case opClosure:
			f := vp.plan.side[op.ext].f
			if len(sc.assign) < len(f.scope) {
				sc.assign = make([]int, len(f.scope))
			}
			assign := sc.assign[:len(f.scope)]
			for i, ch := range chains {
				for x := 0; x < q; x++ {
					for j, u := range f.scope {
						if u == op.u {
							assign[j] = x
							continue
						}
						assign[j] = int(cells[int(u)*B+int(ch)])
					}
					w[i*q+x] *= f.eval(assign)
				}
			}
		}
	}
}

// CondWeightsBatchPlan fills buf with the heat-bath conditional weight
// rows of vertex v for the chains c0 ≤ c < c1 through the sweep plan: on
// return buf[(c-c0)*q+x] equals CondWeights(chain c, v)[x] bit for bit,
// and the filled prefix buf[:(c1−c0)*q] is returned. Every cell the plan
// reads must hold an in-range symbol — the plan walk does not diagnose
// unset cells. It is the plan side of the bit-identity property tests: the
// body the sampling kernel and the cond-cache build run, over the list
// c0, …, c1−1.
func (c *Compiled) CondWeightsBatchPlan(l *state.Lattice, v, c0, c1 int, buf []float64, sc *BatchScratch) ([]float64, error) {
	if v < 0 || v >= c.n {
		return nil, fmt.Errorf("gibbs: batch conditional vertex %d out of range", v)
	}
	nb := c1 - c0
	if c0 < 0 || c1 > l.Chains() || nb <= 0 {
		return nil, fmt.Errorf("gibbs: batch chain range [%d,%d) invalid for B=%d", c0, c1, l.Chains())
	}
	if l.N() < c.n {
		return nil, fmt.Errorf("gibbs: batch lattice has %d vertices, need %d", l.N(), c.n)
	}
	if len(buf) < nb*c.q {
		return nil, fmt.Errorf("gibbs: batch buffer has %d entries, need (c1−c0)·q = %d", len(buf), nb*c.q)
	}
	if sc == nil || len(sc.base) < nb {
		sc = NewBatchScratch(nb)
	}
	chains := make([]int32, nb)
	for i := range chains {
		chains[i] = int32(c0 + i)
	}
	w := buf[:nb*c.q]
	vp := &c.Plan().verts[v]
	if u8 := l.Raw8(); u8 != nil {
		subsetWeightRow(c.q, vp, u8, l.Chains(), chains, w, sc)
	} else {
		subsetWeightRow(c.q, vp, l.RawWide(), l.Chains(), chains, w, sc)
	}
	return w, nil
}

// rowError diagnoses a bad weight row off the hot path, mirroring the
// errors of dist.SampleWeights (including dist.ErrZeroMass) wrapped with
// the (vertex, chain) site.
func rowError(row []float64, v, chain int) error {
	var err error = dist.ErrZeroMass
	for i, x := range row {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			err = fmt.Errorf("dist: weight %v at index %d", x, i)
			break
		}
	}
	total := 0.0
	for _, x := range row {
		total += x
	}
	if math.IsInf(total, 1) {
		err = fmt.Errorf("dist: total weight overflows to +Inf")
	}
	return fmt.Errorf("gibbs: heat-bath at vertex %d chain %d: %w", v, chain, err)
}
