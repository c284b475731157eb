package gibbs

import (
	"bytes"
	"fmt"
	"math"
	"slices"
)

// CondTableForTest returns vertex v's cached neighbor list, rows and meta
// (all nil when the cache does not cover v), and the same three built for
// v alone: its neighbor list computed afresh and a table filled for it
// from its own plan, as a cache without sharing builds it.
func CondTableForTest(c *Compiled, v int) (nbrs []int32, rows []float64, meta []uint8, ownNbrs []int32, ownRows []float64, ownMeta []uint8) {
	cv := c.Cond().at(v)
	if cv == nil {
		return
	}
	vp := &c.Plan().verts[v]
	ownNbrs = appendNeighbors(nil, vp, v)
	ownRows = make([]float64, len(cv.rows))
	ownMeta = make([]uint8, len(cv.meta))
	newCondScratch(c.n, c.q).fillTable(c.q, vp, ownNbrs, ownRows, ownMeta)
	return cv.nbrs, cv.rows, cv.meta, ownNbrs, ownRows, ownMeta
}

// CondKeyForTest spells out what vertex v's cached rows are built from:
// its neighbor count and prior bits and, per op, its kind and strides, its
// table (a unary row's bits, a factor table's address and length, a
// closure's factor address) and the neighbor-list positions it reads
// (−1 for v itself). Two vertices should share a table exactly when their
// keys are equal.
func CondKeyForTest(c *Compiled, v int) string {
	p := c.Plan()
	vp := &p.verts[v]
	nbrs := appendNeighbors(nil, vp, v)
	pos := func(u int32) int {
		if int(u) == v {
			return -1
		}
		return slices.Index(nbrs, u)
	}
	bitsOf := func(row []float64) []uint64 {
		out := make([]uint64, len(row))
		for i, x := range row {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "deg=%d prior=%x", len(nbrs), bitsOf(vp.prior))
	for _, op := range vp.ops {
		fmt.Fprintf(&b, " | kind=%d su=%d sv=%d", op.kind, op.su, op.sv)
		switch op.kind {
		case opUnary:
			fmt.Fprintf(&b, " row=%x", bitsOf(op.table))
		case opPair:
			fmt.Fprintf(&b, " table=%p/%d u@%d", &op.table[0], len(op.table), pos(op.u))
		case opGeneric:
			fmt.Fprintf(&b, " table=%p/%d", &op.table[0], len(op.table))
			side := p.side[op.ext]
			for j, u := range side.scope {
				fmt.Fprintf(&b, " %d@%d", side.strides[j], pos(u))
			}
		case opClosure:
			f := p.side[op.ext].f
			fmt.Fprintf(&b, " factor=%p", f)
			for _, u := range f.scope {
				fmt.Fprintf(&b, " @%d", pos(u))
			}
		}
	}
	return b.String()
}
