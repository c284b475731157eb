package gibbs

// cond.go: the conditional-CDF cache — lookup tables that replace the
// sweep-plan walk of the heat-bath kernel with a single indexed load per
// chain. A vertex's heat-bath conditional depends only on its
// neighborhood (the distinct non-v vertices across its factor scopes), so
// when q^deg(v) is small every weight row the plan walk can ever produce
// is enumerable up front: a table stores one cumulative weight row per
// big-endian mixed-radix neighborhood code, built by running the plan walk
// (subsetWeightRow) per code so each row's partial sums are bit-identical
// (math.Float64bits) to the accumulation the plan path performs at draw
// time. The hot loop for a cached vertex is: gather the neighbor cells of
// the listed chains into codes (one multiply-accumulate per (neighbor,
// chain)), index the CDF row, and do one branchless threshold draw per
// chain — no factor walk, no per-draw validation, no weight buffer. A
// one-chain list takes a scalar path (condSampleOne), and that is how
// every single-site caller — the B = 1 engines, the sequential Glauber
// chain and the LOCAL harnesses of internal/psample — reads the cache,
// through the same bound kernel as the batched engines.
//
// Tables are keyed and shared. A vertex's rows are a function of its key:
// the neighbor count and the prior's bits, and per op its kind, strides,
// table (a unary row by its bits, a factor table by identity, a closure
// by its factor) and the positions in the ascending neighbor list that it
// reads. Vertices with equal keys (sameRows) share one rows/meta backing
// array; on a torus that is one table per neighborhood type, not one per
// vertex. A hash of the key only picks the candidate tables, and a full
// comparison confirms each one, so sharing is exact by construction.
// Table identity is by pointer and length: the constructors of
// internal/model share one table per factor kind, while explicit
// per-factor tables simply do not share. Each covered vertex keeps its own condVertex (its neighbor list
// and slice headers of the shared rows and meta), so the draw reads its
// table exactly as it would an unshared one, with no added indirection.
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
// same no matter which vertices are cached or which tables are shared.
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
// cap and the DefaultCondBytes budget, which charges a shared table once
// and each covered vertex its neighbor list, so sharing can only add
// vertices (buildCond). The cache decides the first of a vertex's three
// draws: a covered vertex takes the cached draw, whatever its plan; an
// uncovered one takes the mask draw when its plan is zero-one (plan.go)
// and the plan walk otherwise. 0/1 vertices stay in the cache: routing
// them to the mask draw shrank the heap but slowed the corpus drives.

import (
	"hash/maphash"
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
// it charges each distinct table its rows and code metadata once and each
// covered vertex its neighbor list, and vertices are admitted in vertex
// order while the charges fit (buildCond); the rest stay on the plan's
// own draw.
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

// condVertex is one vertex's view of its table: nbrs is its ascending
// neighbor list, rows holds ncodes = q^len(nbrs) cumulative weight rows of
// q entries each, indexed by the big-endian mixed-radix code over nbrs,
// and meta holds each code's last positive symbol (the rounding-slack
// target) or condBad. Vertices with equal keys share rows and meta.
// rows == nil means the vertex is not cached.
type condVertex struct {
	nbrs []int32
	rows []float64
	meta []uint8
}

// CondCache is the conditional-CDF cache of a Compiled engine: one
// condVertex per vertex (verts is nil when the cache covers none), and
// the number of distinct tables among them. It is immutable after
// construction and safe for concurrent use.
type CondCache struct {
	verts  []condVertex
	cached int
	tables int
	bytes  int64
}

// CondStats summarizes a cache for footprint reporting: how many vertices
// carry tables, out of how many, how many distinct tables they share, at
// what byte cost, and how many of the rest take the mask draw of a
// zero-one plan instead of the plan walk.
type CondStats struct {
	Cached  int
	Total   int
	Tables  int
	Bytes   int64
	ZeroOne int
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
	st := CondStats{Cached: cc.cached, Total: c.n, Tables: cc.tables, Bytes: cc.bytes}
	for v, vp := range c.Plan().verts {
		if vp.zeroOne && cc.at(v) == nil {
			st.ZeroOne++
		}
	}
	return st
}

// at returns vertex v's table, nil when v is not cached.
func (cc *CondCache) at(v int) *condVertex {
	if uint(v) >= uint(len(cc.verts)) {
		return nil
	}
	cv := &cc.verts[v]
	if cv.rows == nil {
		return nil
	}
	return cv
}

// buildCond covers the eligible vertices — those whose q^(deg+1) row
// entries fit the entry cap — with tables built through the sweep plan,
// one per distinct key. Admission runs in vertex order, in up to two
// passes. The first admits a vertex while the vertices admitted so far,
// each charged a table of its own and its neighbor list, fit the byte
// budget: the set a cache that shares nothing covers, whose actual charge
// is no larger. The second runs only when the first turned a vertex away
// for the budget, and admits each remaining vertex whose actual charge
// (its neighbor list, plus its table unless an admitted vertex's table is
// shared) still fits. So sharing can only add vertices.
func buildCond(c *Compiled) *CondCache {
	cc := &CondCache{}
	if c.q < 1 || c.q > condBad {
		// meta bytes hold last positive symbols, so q must stay below the
		// condBad sentinel; alphabets past 254 symbols are uncacheable.
		return cc
	}
	b := &condBuild{
		p:     c.Plan(),
		cc:    cc,
		heads: map[uint64]int32{},
		seed:  maphash.MakeSeed(),
		fill:  newCondScratch(c.n, c.q),
	}
	if b.admit(true) {
		b.admit(false)
	}
	if len(b.nbrs) < cap(b.nbrs) {
		// Some vertex was left out, or its scopes repeat a neighbor: move
		// the lists into an exactly sized slab.
		slab := make([]int32, 0, len(b.nbrs))
		for v := range b.verts {
			if cv := &b.verts[v]; cv.rows != nil {
				start := len(slab)
				slab = append(slab, cv.nbrs...)
				cv.nbrs = slab[start:len(slab):len(slab)]
			}
		}
	}
	cc.verts, cc.tables = b.verts, len(b.tabs)
	return cc
}

// condBuild is buildCond's state. verts and nbrs are allocated when the
// first vertex is admitted, so a cache that covers nothing allocates
// neither.
type condBuild struct {
	p     *SweepPlan
	cc    *CondCache
	verts []condVertex
	// nbrs is the slab the covered vertices' neighbor lists live in, with
	// room for every vertex's list (neighborBound); list is the scratch the
	// vertex at hand's list is computed in.
	nbrs, list []int32
	// heads maps a key hash to the newest table with that hash, and tabs
	// lists the tables in build order.
	heads map[uint64]int32
	tabs  []condTable
	seed  maphash.Seed
	// flat is the first pass's charge: every vertex it admitted, charged a
	// table of its own.
	flat int64
	fill *condScratch
}

// condTable is one built table: v is the vertex it was built for, whose
// condVertex holds its rows and meta and whose key it has, and next the
// previous table with the same key hash (−1 at the end of the chain).
type condTable struct {
	v, next int32
}

// admit runs one admission pass over the vertices not yet covered,
// charging each its own table when flat is set (buildCond), and reports
// whether it turned a vertex away for the budget.
func (b *condBuild) admit(flat bool) (turnedAway bool) {
	q := b.p.q
	for v := range b.p.verts {
		if b.verts != nil && b.verts[v].rows != nil {
			continue
		}
		vp := &b.p.verts[v]
		b.list = appendNeighbors(b.list[:0], vp, v)
		entries, ok := powSize(q, len(b.list)+1, int64(condEntryCap))
		if !ok {
			continue
		}
		ncodes := int(entries) / q
		table, list := entries*8+int64(ncodes), int64(len(b.list))*4
		if flat && b.flat+table+list > condByteBudget {
			turnedAway = true
			continue
		}
		h := b.keyHash(vp, v, b.list)
		t := b.find(h, v, b.list)
		charge := list
		if t < 0 {
			charge += table
		}
		if b.cc.bytes+charge > condByteBudget {
			continue
		}
		if flat {
			b.flat += table + list
		}
		if b.verts == nil {
			b.verts = make([]condVertex, len(b.p.verts))
			b.nbrs = make([]int32, 0, neighborBound(b.p))
		}
		start := len(b.nbrs)
		b.nbrs = append(b.nbrs, b.list...)
		cv := &b.verts[v]
		cv.nbrs = b.nbrs[start:len(b.nbrs):len(b.nbrs)]
		if t >= 0 {
			rep := &b.verts[b.tabs[t].v]
			cv.rows, cv.meta = rep.rows, rep.meta
		} else {
			cv.rows = make([]float64, int(entries))
			cv.meta = make([]uint8, ncodes)
			b.fill.fillTable(q, vp, cv.nbrs, cv.rows, cv.meta)
			next, seen := b.heads[h]
			if !seen {
				next = -1
			}
			b.heads[h] = int32(len(b.tabs))
			b.tabs = append(b.tabs, condTable{v: int32(v), next: next})
		}
		b.cc.bytes += charge
		b.cc.cached++
	}
	return turnedAway
}

// find returns the built table whose key equals vertex v's, or −1.
func (b *condBuild) find(h uint64, v int, nbrs []int32) int32 {
	t, ok := b.heads[h]
	if !ok {
		return -1
	}
	for ; t >= 0; t = b.tabs[t].next {
		u := int(b.tabs[t].v)
		if sameRows(b.p, u, b.verts[u].nbrs, v, nbrs) {
			return t
		}
	}
	return -1
}

// keyHash hashes everything sameRows compares, so vertices with equal
// keys hash alike; a factor table or closure factor enters by its
// address.
func (b *condBuild) keyHash(vp *vertexPlan, v int, nbrs []int32) uint64 {
	h := mix(uint64(len(nbrs)), uint64(len(vp.prior)))
	for _, x := range vp.prior {
		h = mix(h, math.Float64bits(x))
	}
	for oi := range vp.ops {
		op := &vp.ops[oi]
		h = mix(h, uint64(op.kind)<<32|uint64(len(op.table)))
		h = mix(h, uint64(uint32(op.su))<<32|uint64(uint32(op.sv)))
		switch op.kind {
		case opUnary:
			for _, x := range op.table {
				h = mix(h, math.Float64bits(x))
			}
		case opPair:
			h = mix(h, maphash.Comparable(b.seed, &op.table[0]))
			h = mix(h, uint64(nbrIndex(nbrs, op.u)))
		case opGeneric:
			h = mix(h, maphash.Comparable(b.seed, &op.table[0]))
			side := &vp.plan.side[op.ext]
			for j, u := range side.scope {
				h = mix(h, uint64(nbrIndex(nbrs, u))<<32|uint64(uint32(side.strides[j])))
			}
		case opClosure:
			f := vp.plan.side[op.ext].f
			h = mix(h, maphash.Comparable(b.seed, f))
			for _, u := range f.scope {
				h = mix(h, uint64(scopeIndex(nbrs, u, v)))
			}
		}
	}
	return h
}

// mix folds the word x into the hash h.
func mix(h, x uint64) uint64 { return dist.Mix64(h ^ x) }

// sameRows reports whether vertices a and b, with neighbor lists na and
// nb, have equal keys: the same neighbor count and prior bits and, op for
// op, the same kind and strides, the same table (a unary row by its bits,
// a factor table by pointer and length, a closure by its factor), reading
// the same neighbor-list positions. fillTable builds a code's row from
// exactly these, so equal keys give bit-identical rows and meta.
func sameRows(p *SweepPlan, a int, na []int32, b int, nb []int32) bool {
	pa, pb := &p.verts[a], &p.verts[b]
	if len(na) != len(nb) || len(pa.ops) != len(pb.ops) || !sameBits(pa.prior, pb.prior) {
		return false
	}
	for i := range pa.ops {
		x, y := &pa.ops[i], &pb.ops[i]
		if x.kind != y.kind || x.su != y.su || x.sv != y.sv {
			return false
		}
		switch x.kind {
		case opUnary:
			if !sameBits(x.table, y.table) {
				return false
			}
		case opPair:
			if !sameTable(x.table, y.table) || nbrIndex(na, x.u) != nbrIndex(nb, y.u) {
				return false
			}
		case opGeneric:
			sx, sy := &p.side[x.ext], &p.side[y.ext]
			if !sameTable(x.table, y.table) || len(sx.scope) != len(sy.scope) {
				return false
			}
			for j, u := range sx.scope {
				if sx.strides[j] != sy.strides[j] || nbrIndex(na, u) != nbrIndex(nb, sy.scope[j]) {
					return false
				}
			}
		case opClosure:
			f := p.side[x.ext].f
			if f != p.side[y.ext].f {
				return false
			}
			for _, u := range f.scope {
				if scopeIndex(na, u, a) != scopeIndex(nb, u, b) {
					return false
				}
			}
		}
	}
	return true
}

// sameBits reports whether two rows hold the same float bits.
func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// sameTable reports whether two factor tables are one array.
func sameTable(x, y []float64) bool {
	return len(x) == len(y) && &x[0] == &y[0]
}

// nbrIndex returns u's position in the neighbor list nbrs (a linear scan:
// lists that fit the entry cap are short).
func nbrIndex(nbrs []int32, u int32) int {
	for i, x := range nbrs {
		if x == u {
			return i
		}
	}
	return -1
}

// scopeIndex is nbrIndex for a closure's scope entry u, and −1 when u is
// the vertex v itself, whose candidate symbol the walk substitutes.
func scopeIndex(nbrs []int32, u int32, v int) int {
	if int(u) == v {
		return -1
	}
	return nbrIndex(nbrs, u)
}

// neighborBound returns the number of neighbor occurrences across every
// op's scope, an upper bound on the total length of the vertices'
// neighbor lists (exact on pairwise instances).
func neighborBound(p *SweepPlan) int {
	n := 0
	for v := range p.verts {
		ops := p.verts[v].ops
		for oi := range ops {
			switch op := &ops[oi]; op.kind {
			case opPair:
				n++
			case opGeneric:
				n += len(p.side[op.ext].scope)
			case opClosure:
				n += len(p.side[op.ext].f.scope)
			}
		}
	}
	return n
}

// appendNeighbors appends to dst the distinct non-v vertices across all of
// the vertex plan's op scopes, ascending — the variables the conditional
// actually reads (unary ops and the prior are chain-independent).
func appendNeighbors(dst []int32, vp *vertexPlan, v int) []int32 {
	start := len(dst)
	for oi := range vp.ops {
		switch op := &vp.ops[oi]; op.kind {
		case opPair:
			dst = addNeighbor(dst, start, op.u, v)
		case opGeneric:
			for _, u := range vp.plan.side[op.ext].scope {
				dst = addNeighbor(dst, start, u, v)
			}
		case opClosure:
			for _, u := range vp.plan.side[op.ext].f.scope {
				dst = addNeighbor(dst, start, u, v)
			}
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// addNeighbor appends u to the list dst[start:] unless u is v or listed.
func addNeighbor(dst []int32, start int, u int32, v int) []int32 {
	if int(u) == v || slices.Contains(dst[start:], u) {
		return dst
	}
	return append(dst, u)
}

// condScratch is fillTable's scratch: a one-chain cell array over every
// vertex, one weight row, and the walk's scratch.
type condScratch struct {
	cells  []uint8
	w      []float64
	sc     *BatchScratch
	chain0 [1]int32
}

func newCondScratch(n, q int) *condScratch {
	return &condScratch{cells: make([]uint8, n), w: make([]float64, q), sc: NewBatchScratch(1)}
}

// fillTable builds the rows and meta of a vertex plan over its neighbor
// list: each code's row is produced by subsetWeightRow on the one-chain
// cell array holding the decoded neighborhood — the exact generic body
// both lattice widths run, so the stored partial sums match the plan
// path's draw-time accumulation bitwise on compact and wide lattices alike.
func (s *condScratch) fillTable(q int, vp *vertexPlan, nbrs []int32, rows []float64, meta []uint8) {
	for code := range meta {
		rem := code
		for j := len(nbrs) - 1; j >= 0; j-- {
			s.cells[nbrs[j]] = uint8(rem % q)
			rem /= q
		}
		subsetWeightRow(q, vp, s.cells, 1, s.chain0[:], s.w, s.sc)
		row := rows[code*q : (code+1)*q]
		acc := 0.0
		last := -1
		ok := true
		for x, wx := range s.w {
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
			copy(row, s.w)
			meta[code] = condBad
			continue
		}
		meta[code] = uint8(last)
	}
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
