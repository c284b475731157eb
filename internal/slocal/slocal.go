// Package slocal implements the sequential local (SLOCAL) model of
// Ghaffari, Kuhn and Maus (STOC 2017), in the randomized variant used by
// Section 3 of Feng & Yin, PODC 2018: an adversary provides an ordering of
// the nodes; the algorithm processes nodes one by one, and when processing
// node v it reads (and, in the multi-pass variant, writes) the states of all
// nodes within a bounded radius of v, then computes v's output with
// unbounded local computation.
//
// The package also provides the locality accounting of Lemma 4.4: a k-pass
// SLOCAL algorithm with per-pass localities r_1..r_k collapses to a
// single-pass algorithm with locality r_1 + 2·Σ_{i≥2} r_i, and write-radius
// r adds r to the locality.
package slocal

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// Ctx is the execution context handed to an algorithm while it processes
// one node: it exposes reads and writes of node states within the declared
// locality, and records the maximum radius actually used.
type Ctx struct {
	g        *graph.Graph
	node     int
	locality int
	states   []any
	rng      *rand.Rand
	maxUsed  int
	dist     []int // distances from the processed node
	err      error
}

// Node returns the node currently being processed.
func (c *Ctx) Node() int { return c.node }

// RNG returns the per-run random source. In the SLOCAL model each node holds
// an arbitrarily long private random string; a single shared source consumed
// in processing order is an equivalent realization.
func (c *Ctx) RNG() *rand.Rand { return c.rng }

// Err returns the first access violation recorded on the context.
func (c *Ctx) Err() error { return c.err }

func (c *Ctx) check(u int) bool {
	if u < 0 || u >= c.g.N() {
		c.recordErr(fmt.Errorf("slocal: node %d out of range", u))
		return false
	}
	d := c.dist[u]
	if d < 0 || d > c.locality {
		c.recordErr(fmt.Errorf("slocal: access to node %d at distance %d exceeds locality %d", u, d, c.locality))
		return false
	}
	if d > c.maxUsed {
		c.maxUsed = d
	}
	return true
}

func (c *Ctx) recordErr(err error) {
	if c.err == nil {
		c.err = err
	}
}

// read returns the state of node u, which must lie within the locality of
// the processed node.
func (c *Ctx) read(u int) any {
	if !c.check(u) {
		return nil
	}
	return c.states[u]
}

// Write sets the state of node u, which must lie within the locality. (This
// is the "write into nearby memories" variant; Lemma 4.4(1) converts it to
// write-own-memory at the cost of adding the write radius to the locality.)
func (c *Ctx) Write(u int, state any) {
	if !c.check(u) {
		return
	}
	c.states[u] = state
}

// Algorithm is a (possibly multi-pass) SLOCAL algorithm.
type Algorithm interface {
	// Passes returns the number of sequential passes over the ordering.
	Passes() int
	// Locality returns the read/write radius of pass p (0-indexed) on an
	// n-node graph.
	Locality(p, n int) int
	// Init returns node v's initial state.
	Init(v int) any
	// Process is called once per (pass, node) in order; it may read and
	// write states within the pass locality and must store v's output in
	// v's state by the end of the final pass.
	Process(pass int, c *Ctx) error
}

// Result carries the outcome of a sequential run.
type Result struct {
	// States holds the final per-node states.
	States []any
	// Locality is the combined single-pass locality charged by Lemma 4.4:
	// r_1 + 2·Σ_{i≥2} r_i.
	Locality int
	// MaxUsed is the maximum radius actually accessed across all steps.
	MaxUsed int
}

// ErrOrder indicates an ordering that is not a permutation of the vertices.
var ErrOrder = errors.New("slocal: ordering is not a permutation")

// CheckOrder validates that order is a permutation of 0..n-1.
func CheckOrder(n int, order []int) error {
	if len(order) != n {
		return fmt.Errorf("%w: length %d != n %d", ErrOrder, len(order), n)
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("%w: bad entry %d", ErrOrder, v)
		}
		seen[v] = true
	}
	return nil
}

// Run executes the algorithm sequentially on the given ordering with the
// given random source, enforcing the declared localities.
func Run(g *graph.Graph, alg Algorithm, order []int, rng *rand.Rand) (*Result, error) {
	n := g.N()
	if err := CheckOrder(n, order); err != nil {
		return nil, err
	}
	states := make([]any, n)
	for v := 0; v < n; v++ {
		states[v] = alg.Init(v)
	}
	res := &Result{States: states}
	combined := 0
	for p := 0; p < alg.Passes(); p++ {
		r := alg.Locality(p, n)
		if p == 0 {
			combined += r
		} else {
			combined += 2 * r
		}
		for _, v := range order {
			ctx := &Ctx{
				g:        g,
				node:     v,
				locality: r,
				states:   states,
				rng:      rng,
				dist:     g.BFSDistances(v),
			}
			if err := alg.Process(p, ctx); err != nil {
				return nil, fmt.Errorf("slocal: pass %d node %d: %w", p, v, err)
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if ctx.maxUsed > res.MaxUsed {
				res.MaxUsed = ctx.maxUsed
			}
		}
	}
	res.Locality = combined
	return res, nil
}

// Orderings used by tests and experiments; SLOCAL correctness must hold for
// every ordering, so the suite exercises several adversarial choices.

// IdentityOrder returns 0..n-1.
func IdentityOrder(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}

// ReverseOrder returns n-1..0.
func ReverseOrder(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = n - 1 - i
	}
	return o
}

// RandomOrder returns a uniformly random permutation.
func RandomOrder(n int, rng *rand.Rand) []int {
	o := IdentityOrder(n)
	rng.Shuffle(n, func(i, j int) { o[i], o[j] = o[j], o[i] })
	return o
}

// BoundaryFirstOrder returns an adversarial ordering that processes the
// vertices farthest from vertex 0 first (descending BFS distance, ties by
// index). Long-range information must then flow "inwards", a worst case for
// sequential samplers.
func BoundaryFirstOrder(g *graph.Graph) []int {
	d := g.BFSDistances(0)
	o := IdentityOrder(g.N())
	// Stable selection sort by descending distance keeps ties in index
	// order and avoids importing sort for a 20-line package helper.
	for i := 0; i < len(o); i++ {
		best := i
		for j := i + 1; j < len(o); j++ {
			if d[o[j]] > d[o[best]] {
				best = j
			}
		}
		o[i], o[best] = o[best], o[i]
	}
	return o
}
