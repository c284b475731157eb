package gibbs

// cond.go: the conditional-CDF cache — per-vertex lookup tables that
// replace the sweep-plan walk of the heat-bath kernel with a single
// indexed load per chain. A vertex's heat-bath conditional depends only on
// its neighborhood (the distinct non-v vertices across its factor scopes),
// so when q^deg(v) is small every weight row the plan walk can ever
// produce is enumerable up front: the cache stores one cumulative weight
// row per big-endian mixed-radix neighborhood code, built by running the
// plan walk (subsetWeightRow) per code so each row's partial sums are
// bit-identical (math.Float64bits) to the accumulation the plan path
// performs at draw time. The hot loop for a cached vertex is: gather the
// neighbor cells of the listed chains into codes (one multiply-accumulate
// per (neighbor, chain)), index the CDF row, and do one branchless
// threshold draw per chain — no factor walk, no per-draw validation, no
// weight buffer. A one-chain list takes a scalar path
// (condSampleOne), and that is how every single-site caller — the B = 1
// engines, the sequential Glauber chain and the LOCAL harnesses of
// internal/psample — reads the cache, through the same bound kernel as
// the batched engines.
//
// Draw equivalence (the load-bearing argument): dist.sampleWalk returns
// the first positive-weight symbol whose running total exceeds
// u = Float64()·total, with rounding slack falling to the last positive
// symbol. The stored row cum[x] = Σ_{j≤x} w[j] accumulates zeros too, but
// adding 0.0 to a nonnegative float is the exact identity, so cum[x]
// equals the walk's accumulator bitwise, and the first x with u < cum[x]
// necessarily has w[x] > 0 (a zero-weight symbol repeats the previous
// cumulative value, so any u below it was already caught). Overflow
// (u lands at or past cum[q−1] through rounding) falls to the precomputed
// last positive symbol. Every path consumes exactly one uniform per chain,
// so the RNG streams — and therefore every pinned trajectory — are the
// same no matter which vertices are cached.
//
// Rows whose plan weights are invalid (zero-mass, negative, NaN, or
// infinite — reachable codes need not be feasible) are marked bad and
// store the raw weight row instead of cumulative sums; a draw landing on
// one rebuilds the plan path's exact error through rowError without
// consuming a uniform, exactly like the plan kernels' validate-then-draw
// order.
//
// The cache is built lazily and sync.Once-shared alongside Plan(), is
// invalidation-free (the compiled engine is immutable), and reports its
// footprint through CondStats for benchmarks and cmd/lsample. Which
// vertices it covers is decided by sizes alone: the DefaultCondCap entry
// cap and the DefaultCondBytes budget.

import (
	"math"
	"slices"

	"repro/internal/dist"
	"repro/internal/state"
)

// DefaultCondCap is the default per-vertex entry cap of the conditional-CDF
// cache: a vertex is cacheable when q^deg(v) · q — one q-wide row per
// neighborhood code — fits under it. It is the cache's analogue of
// DefaultTableCap (see the shared powSize arithmetic in gibbs.go): the
// table cap bounds one factor's assignment space, the cond cap bounds one
// vertex's joint neighborhood space. Bounded-degree small-q models (the
// whole corpus) sit far below both.
const DefaultCondCap = 1 << 16

// DefaultCondBytes is the default per-instance byte budget of the cache:
// vertices are admitted greedily in vertex order until their rows, code
// metadata, and neighbor lists would exceed it; the rest stay on the plan
// walk.
const DefaultCondBytes = 16 << 20

// condEntryCap and condByteBudget are the live limits, overridable by
// SetCondCapForTest.
var (
	condEntryCap   = DefaultCondCap
	condByteBudget = int64(DefaultCondBytes)
)

// SetCondCapForTest overrides the per-vertex entry cap and the per-instance
// byte budget used by subsequently built caches and returns a restore
// function — the cache twin of state.SetCompactLimitForTest. A cache built
// under (0, 0) covers no vertex, which is how tests run the plan walk. It
// must not run concurrently with cache builds; already-built caches are
// unaffected (the cache is invalidation-free).
func SetCondCapForTest(entries int, bytes int64) (restore func()) {
	oldE, oldB := condEntryCap, condByteBudget
	condEntryCap, condByteBudget = entries, bytes
	return func() { condEntryCap, condByteBudget = oldE, oldB }
}

// condBad marks a neighborhood code whose weight row is invalid
// (zero-mass or non-finite); its row slot stores the raw weights so the
// fallback error is built from exactly the values the plan walk produces.
const condBad = 0xFF

// condVertex is one vertex's lookup table: rows holds ncodes = q^deg(v)
// cumulative weight rows of q entries each, indexed by the big-endian
// mixed-radix code over the ascending neighbor list, and meta holds each
// code's last positive symbol (the rounding-slack target) or condBad.
// rows == nil means the vertex is not cached.
type condVertex struct {
	nbrs []int32
	rows []float64
	meta []uint8
}

// CondCache is the conditional-CDF cache of a Compiled engine: one
// condVertex per vertex, immutable after construction and safe for
// concurrent use.
type CondCache struct {
	q      int
	verts  []condVertex
	cached int
	bytes  int64
}

// CondStats summarizes a cache for footprint reporting: how many vertices
// carry tables, out of how many, at what byte cost.
type CondStats struct {
	Cached int
	Total  int
	Bytes  int64
}

// Cond returns the engine's conditional-CDF cache, building it on first
// call (which also builds the sweep plan) — the gate of the heat-bath
// kernel, which reads a vertex's table when the cache covers it and walks
// the plan otherwise. The build honors the entry cap and byte budget in
// effect at that moment and is never invalidated.
func (c *Compiled) Cond() *CondCache {
	c.condOnce.Do(func() { c.cond = buildCond(c) })
	return c.cond
}

// CondStats reports the cache footprint, building the cache if needed.
func (c *Compiled) CondStats() CondStats {
	cc := c.Cond()
	return CondStats{Cached: cc.cached, Total: c.n, Bytes: cc.bytes}
}

// at returns vertex v's table, nil when v is not cached.
func (cc *CondCache) at(v int) *condVertex {
	cv := &cc.verts[v]
	if cv.rows == nil {
		return nil
	}
	return cv
}

// buildCond enumerates the eligible vertices' conditionals through the
// sweep plan. Each code's row is produced by subsetWeightRow on a
// synthetic single-chain cell array holding the decoded neighborhood — the
// exact generic body both lattice widths run, so the stored partial sums
// match the plan path's draw-time accumulation bitwise on compact and wide
// lattices alike.
func buildCond(c *Compiled) *CondCache {
	cc := &CondCache{q: c.q, verts: make([]condVertex, c.n)}
	if c.q < 1 || c.q > condBad {
		// meta bytes hold last positive symbols, so q must stay below the
		// condBad sentinel; alphabets past 254 symbols are uncacheable.
		return cc
	}
	p := c.Plan()
	cells := make([]uint8, c.n)
	w := make([]float64, c.q)
	sc := NewBatchScratch(1)
	chain0 := []int32{0}
	for v := 0; v < c.n; v++ {
		vp := &p.verts[v]
		nbrs := condNeighbors(vp, v)
		entries, ok := powSize(c.q, len(nbrs)+1, int64(condEntryCap))
		if !ok {
			continue
		}
		ncodes := int(entries) / c.q
		sz := entries*8 + int64(ncodes) + int64(len(nbrs))*4
		if cc.bytes+sz > condByteBudget {
			continue
		}
		cv := &cc.verts[v]
		cv.nbrs = nbrs
		cv.rows = make([]float64, int(entries))
		cv.meta = make([]uint8, ncodes)
		for code := 0; code < ncodes; code++ {
			rem := code
			for j := len(nbrs) - 1; j >= 0; j-- {
				cells[nbrs[j]] = uint8(rem % c.q)
				rem /= c.q
			}
			subsetWeightRow(c.q, vp, cells, 1, chain0, w, sc)
			row := cv.rows[code*c.q : (code+1)*c.q]
			acc := 0.0
			last := -1
			ok := true
			for x, wx := range w {
				if !(wx >= 0) || math.IsInf(wx, 0) {
					ok = false
				}
				if wx > 0 {
					last = x
				}
				acc += wx
				row[x] = acc
			}
			if !ok || !(acc > 0 && acc <= math.MaxFloat64) {
				copy(row, w)
				cv.meta[code] = condBad
				continue
			}
			cv.meta[code] = uint8(last)
		}
		cc.bytes += sz
		cc.cached++
	}
	return cc
}

// condNeighbors returns the distinct non-v vertices across all of the
// vertex plan's op scopes, ascending — the variables the conditional
// actually reads (unary ops and the prior are chain-independent).
func condNeighbors(vp *vertexPlan, v int) []int32 {
	var nbrs []int32
	add := func(u int32) {
		if int(u) == v || slices.Contains(nbrs, u) {
			return
		}
		nbrs = append(nbrs, u)
	}
	for i := range vp.ops {
		op := &vp.ops[i]
		switch op.kind {
		case opPair:
			add(op.u)
		case opGeneric:
			for _, u := range op.scope {
				add(u)
			}
		case opClosure:
			for _, u := range op.f.scope {
				add(u)
			}
		}
	}
	slices.Sort(nbrs)
	return nbrs
}

// condGatherSubset fills codes[0:len(chains)] with the neighborhood codes
// of the listed chains: big-endian mixed-radix accumulation,
// neighbor-outer, two neighbors per pass over the list so each chain
// index and partial code is loaded and stored once per pair.
func condGatherSubset[T state.Cells](q int, nbrs []int32, cells []T, B int, chains []int32, codes []int32) {
	codes = codes[:len(chains)]
	for i := range codes {
		codes[i] = 0
	}
	q32 := int32(q)
	j := 0
	for ; j+1 < len(nbrs); j += 2 {
		r0 := cells[int(nbrs[j])*B:][:B]
		r1 := cells[int(nbrs[j+1])*B:][:B]
		for i, ch := range chains {
			codes[i] = (codes[i]*q32+int32(r0[ch]))*q32 + int32(r1[ch])
		}
	}
	if j < len(nbrs) {
		r0 := cells[int(nbrs[j])*B:][:B]
		for i, ch := range chains {
			codes[i] = codes[i]*q32 + int32(r0[ch])
		}
	}
}

// condSampleOne draws vertex v in the one chain ch — the one-chain list
// of condSampleSubset (B = 1 engines, the sequential Glauber chain, the
// LOCAL harnesses, lone phase winners). The code is a scalar
// accumulation, with no scratch row, and the draw is the row-wise
// threshold walk condSampleWide unrolls, so it is bit-identical to it.
func condSampleOne[T state.Cells](q int, cv *condVertex, cells []T, B, v, ch int, rng *dist.Xoshiro) error {
	code := 0
	for _, u := range cv.nbrs {
		code = code*q + int(cells[int(u)*B+ch])
	}
	m := cv.meta[code]
	row := cv.rows[code*q : (code+1)*q]
	if m == condBad {
		return rowError(row, v, ch)
	}
	u := rng.Float64() * row[q-1]
	x := int(m)
	for j, cum := range row {
		if u < cum {
			x = j
			break
		}
	}
	cells[v*B+ch] = T(x)
	return nil
}

// condSampleSubset is the cached twin of sampleSubsetCells: codes for the
// listed chains (into the sc.base scratch the plan walk would otherwise
// use), then one threshold draw per chain against the indexed cumulative
// row. A bad code surfaces the plan path's exact rowError before its
// chain's uniform is drawn. A one-chain list takes
// condSampleOne and never enters condSampleWide's large frame: engine
// stages run on pool goroutines that start on a small stack, and entering
// that frame from a stage grew the stack on every Run.
func condSampleSubset[T state.Cells](q int, cv *condVertex, cells []T, B, v int, chains []int32, sc *BatchScratch, rng *dist.Xoshiro) error {
	if len(chains) == 1 {
		return condSampleOne(q, cv, cells, B, v, int(chains[0]), rng)
	}
	return condSampleWide(q, cv, cells, B, v, chains, sc, rng)
}

// condSampleWide is condSampleSubset's body for lists of two or more
// chains: codes for every listed chain, then one threshold draw each. At
// q = 2 the select is branchless, exactly the plan path's q = 2 draw: the
// symbol is 1 iff u clears cum0 and symbol 1 carries weight (m is the
// last positive symbol, 0 or 1).
func condSampleWide[T state.Cells](q int, cv *condVertex, cells []T, B, v int, chains []int32, sc *BatchScratch, rng *dist.Xoshiro) error {
	nb := len(chains)
	codes := sc.base[:nb]
	condGatherSubset(q, cv.nbrs, cells, B, chains, codes)
	rows, meta := cv.rows, cv.meta
	vbase := v * B
	switch q {
	case 2:
		for i, ch := range chains {
			code := codes[i]
			m := meta[code]
			if m == condBad {
				return rowError(rows[2*code:2*code+2], v, int(ch))
			}
			cum0, total := rows[2*code], rows[2*code+1]
			u := rng.Float64() * total
			var ge uint8
			if u >= cum0 {
				ge = 1
			}
			cells[vbase+int(ch)] = T(ge & m)
		}
	case 3:
		for i, ch := range chains {
			code := codes[i]
			m := meta[code]
			if m == condBad {
				return rowError(rows[3*code:3*code+3], v, int(ch))
			}
			cum0, cum1, total := rows[3*code], rows[3*code+1], rows[3*code+2]
			u := rng.Float64() * total
			var x T
			switch {
			case u < cum0:
				x = 0
			case u < cum1:
				x = 1
			default:
				x = T(m)
			}
			cells[vbase+int(ch)] = x
		}
	default:
		for i, ch := range chains {
			code := int(codes[i])
			m := meta[code]
			row := rows[code*q : (code+1)*q]
			if m == condBad {
				return rowError(row, v, int(ch))
			}
			u := rng.Float64() * row[q-1]
			x := int(m)
			for j, cum := range row {
				if u < cum {
					x = j
					break
				}
			}
			cells[vbase+int(ch)] = T(x)
		}
	}
	return nil
}
