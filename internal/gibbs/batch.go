package gibbs

// batch.go holds the per-goroutine scratch of the multi-chain kernels.
// B independent chains share one Compiled engine and store their
// configurations in a state.Lattice — chain-major per vertex, cell (v, c)
// at vals[v*B+c] — and every sampling path runs the fused kernels over it:
// the heat-bath kernel bound by BindVertexSubset (subset.go) for an
// explicit chain list, FilterWeightBatch (subset.go) for the
// LocalMetropolis filter, and the conditional-CDF cache (cond.go) under
// the heat-bath kernel. One chain is the single-chain form: the
// sequential Glauber chain and the LOCAL harnesses of internal/psample
// run the same kernels at the chain list {0} or the block [0, 1). Advancing one vertex in many
// chains at once fetches the per-vertex plan once per vertex instead of
// once per chain and walks each factor table for all chains while it is
// cache-hot — one byte per cell on the compact lattice, which keeps the
// B×n working set in cache at large B.

// BatchScratch holds the per-goroutine buffers of the batched kernels.
type BatchScratch struct {
	base   []int32
	assign []int
	// delta holds the per-toggled-vertex index-delta rows of
	// FilterWeightBatch (k rows of c1−c0 entries each), grown on demand.
	delta []int32
}

// NewBatchScratch returns scratch sized for chain lists of up to chains.
func NewBatchScratch(chains int) *BatchScratch {
	return &BatchScratch{base: make([]int32, chains)}
}

// deltaBuf returns the delta scratch grown to at least n entries.
func (sc *BatchScratch) deltaBuf(n int) []int32 {
	if len(sc.delta) < n {
		sc.delta = make([]int32, n)
	}
	return sc.delta[:n]
}
