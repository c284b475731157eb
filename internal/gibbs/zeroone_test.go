package gibbs

// zeroone_test.go pins the mask draw of zero-one plans to the plan walk it
// replaces: on random 0/1 instances both must write the same cells, leave
// the generator in the same state and fail with the same error on a chain
// whose neighbourhood forbids every symbol, and only plans the mask draw
// is exact for may be marked zero-one.

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/state"
)

// zeroOneRow returns a q-entry 0/1 row whose entries are 1 with
// probability p.
func zeroOneRow(rng *rand.Rand, q int, p float64) []float64 {
	row := make([]float64, q)
	for x := range row {
		if rng.Float64() < p {
			row[x] = 1
		}
	}
	return row
}

// neqTable returns the q×q disequality table of a proper colouring.
func neqTable(q int) []float64 {
	t := make([]float64, q*q)
	for a := 0; a < q; a++ {
		for b := 0; b < q; b++ {
			if a != b {
				t[a*q+b] = 1
			}
		}
	}
	return t
}

// zeroOneSpec builds a random 0/1 instance at alphabet q on n vertices:
// list priors (a fifth of them singletons) as unary factors ahead of
// everything else, so they fold into the prior row; random 0/1 pair
// tables next to the disequality table, some with an all-zero row, so a
// neighbour's symbol can forbid every symbol; and unary factors after the
// pair factors, which stay opUnary ops.
func zeroOneSpec(t *testing.T, rng *rand.Rand, q, n int) *Spec {
	t.Helper()
	g := graph.New(n)
	var factors []Factor
	for v := 0; v < n; v++ {
		switch r := rng.Float64(); {
		case r < 0.2:
			row := make([]float64, q)
			row[rng.Intn(q)] = 1
			factors = append(factors, UnaryTable(v, row, "singleton"))
		case r < 0.6:
			factors = append(factors, UnaryTable(v, zeroOneRow(rng, q, 0.7), "list"))
		}
	}
	neq := neqTable(q)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() > 0.5 {
				continue
			}
			g.MustAddEdge(a, b)
			table := neq
			if rng.Float64() < 0.5 {
				table = zeroOneRow(rng, q*q, 0.9)
				if rng.Float64() < 0.3 {
					y := rng.Intn(q)
					for x := 0; x < q; x++ {
						table[y*q+x] = 0
					}
				}
			}
			u, v := a, b
			if rng.Float64() < 0.5 {
				u, v = b, a
			}
			factors = append(factors, PairTable(u, v, table, "pair"))
		}
	}
	for v := 0; v < n; v++ {
		if rng.Float64() < 0.3 {
			factors = append(factors, UnaryTable(v, zeroOneRow(rng, q, 0.85), "late"))
		}
	}
	s, err := NewSpec(g, q, factors)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestZeroOneDrawMatchesWalk runs the mask draw and the plan walk
// (sampleSubsetCells on the same plan with zeroOne cleared) on the same
// cells, chain list and stream, at every vertex of random 0/1 instances,
// on compact and wide cells. Where a listed chain has no allowed symbol,
// both must return the same error wrapping dist.ErrZeroMass, having drawn
// and written the chains before it and nothing for it or after it.
func TestZeroOneDrawMatchesWalk(t *testing.T) {
	var draws, zeroMass, singletons, lateUnary int
	for _, wide := range []bool{false, true} {
		t.Run(fmt.Sprintf("wide=%v", wide), func(t *testing.T) {
			if wide {
				defer state.SetCompactLimitForTest(0)()
			}
			for _, q := range []int{4, 5, 10, 63, 64} {
				rng := rand.New(rand.NewSource(int64(q)))
				for trial := 0; trial < 12; trial++ {
					s := zeroOneSpec(t, rng, q, 3+rng.Intn(5))
					p := Compile(s).Plan()
					const B = 9
					start, err := state.Pack(s.G.N(), q, randomChains(s.G.N(), q, B, rng.Int63()))
					if err != nil {
						t.Fatal(err)
					}
					if start.Compact() == wide {
						t.Fatalf("lattice Compact() = %v with wide=%v", start.Compact(), wide)
					}
					for v := range p.verts {
						vp := &p.verts[v]
						if !vp.zeroOne {
							t.Fatalf("q=%d vertex %d: 0/1 plan not marked zero-one", q, v)
						}
						if vp.prior != nil {
							ones := 0
							for _, x := range vp.prior {
								if x == 1 {
									ones++
								}
							}
							if ones == 1 {
								singletons++
							}
						}
						for _, op := range vp.ops {
							if op.kind == opUnary {
								lateUnary++
							}
						}
						var chains []int32
						for c := int32(0); c < B; c++ {
							if rng.Float64() < 0.6 {
								chains = append(chains, c)
							}
						}
						if len(chains) == 0 {
							chains = []int32{int32(rng.Intn(B))}
						}
						seed := rng.Int63()
						var fail int
						if u8 := start.Raw8(); u8 != nil {
							fail = checkZeroOneDraw(t, q, p, v, u8, B, chains, seed)
						} else {
							fail = checkZeroOneDraw(t, q, p, v, start.RawWide(), B, chains, seed)
						}
						draws += min(fail, len(chains))
						if fail < len(chains) {
							zeroMass++
						}
					}
				}
			}
		})
	}
	if draws == 0 || zeroMass == 0 || singletons == 0 || lateUnary == 0 {
		t.Fatalf("vacuous: %d draws, %d zero-mass lists, %d singleton priors, %d unary ops after a pair op",
			draws, zeroMass, singletons, lateUnary)
	}
}

// checkZeroOneDraw draws vertex v in the listed chains of a copy of cells
// by the mask draw and of another copy by the plan walk, checks they
// agree as TestZeroOneDrawMatchesWalk describes, and returns the list
// index of the first chain without an allowed symbol (len(chains) when
// every chain has one).
func checkZeroOneDraw[T state.Cells](t *testing.T, q int, p *SweepPlan, v int, cells []T, B int, chains []int32, seed int64) int {
	t.Helper()
	vp := &p.verts[v]
	walk := *vp
	walk.zeroOne = false
	sc := NewBatchScratch(len(chains))
	// The first chain whose plan-walk row carries no mass.
	fail := len(chains)
	row := make([]float64, q)
	for i := range chains {
		subsetWeightRow(q, vp, cells, B, chains[i:i+1], row, sc)
		total := 0.0
		for _, x := range row {
			total += x
		}
		if total == 0 {
			fail = i
			break
		}
	}
	mask, plan := slices.Clone(cells), slices.Clone(cells)
	xm, xp := dist.NewXoshiro(seed, 0), dist.NewXoshiro(seed, 0)
	errM := subsetZeroOne(q, vp, p.masks, mask, B, v, chains, make([]float64, len(chains)*q), sc, &xm)
	errP := sampleSubsetCells(q, &walk, p.masks, plan, B, v, chains, make([]float64, len(chains)*q), sc, &xp)
	site := fmt.Sprintf("q=%d vertex %d chains %v", q, v, chains)
	if !slices.Equal(mask, plan) {
		t.Fatalf("%s: mask draw wrote %v, plan walk %v", site, mask, plan)
	}
	if xm != xp {
		t.Fatalf("%s: generator states differ after the draws", site)
	}
	ref := dist.NewXoshiro(seed, 0)
	for range fail {
		ref.Float64()
	}
	if xm != ref {
		t.Fatalf("%s: generator did not advance exactly once per chain before list index %d", site, fail)
	}
	for _, ch := range chains[fail:] {
		if mask[v*B+int(ch)] != cells[v*B+int(ch)] {
			t.Fatalf("%s: chain %d written at or after the failing chain", site, ch)
		}
	}
	if fail == len(chains) {
		if errM != nil || errP != nil {
			t.Fatalf("%s: errors %v / %v on a list where every chain has mass", site, errM, errP)
		}
		return fail
	}
	if errM == nil || errP == nil || errM.Error() != errP.Error() {
		t.Fatalf("%s: errors %v / %v, want the same zero-mass error", site, errM, errP)
	}
	if !errors.Is(errM, dist.ErrZeroMass) || !strings.Contains(errM.Error(), fmt.Sprintf("chain %d:", chains[fail])) {
		t.Fatalf("%s: error %v, want dist.ErrZeroMass at chain %d", site, errM, chains[fail])
	}
	return fail
}

// TestZeroOneMarking checks which plans are marked zero-one: the alphabet
// range bounds 4 and 64 are, and every plan with a weight other than 0 or
// 1, q = 3, q = 65, or an op of three or more vertices is not.
func TestZeroOneMarking(t *testing.T) {
	path := func(n int) *graph.Graph {
		g := graph.New(n)
		for v := 0; v+1 < n; v++ {
			g.MustAddEdge(v, v+1)
		}
		return g
	}
	marked := func(t *testing.T, q int, factors []Factor, n int) []bool {
		t.Helper()
		s, err := NewSpec(path(n), q, factors)
		if err != nil {
			t.Fatal(err)
		}
		p := Compile(s).Plan()
		out := make([]bool, len(p.verts))
		for v := range p.verts {
			out[v] = p.verts[v].zeroOne
		}
		return out
	}
	coloring := func(q int) []Factor {
		return []Factor{PairTable(0, 1, neqTable(q), "neq"), PairTable(1, 2, neqTable(q), "neq")}
	}
	half := neqTable(5)
	half[2*5+3] = 0.5
	cases := []struct {
		name    string
		q, n    int
		factors []Factor
		want    []bool
	}{
		{"q=4", 4, 3, coloring(4), []bool{true, true, true}},
		{"q=64", 64, 3, coloring(64), []bool{true, true, true}},
		{"q=3", 3, 3, coloring(3), []bool{false, false, false}},
		{"q=65", 65, 3, coloring(65), []bool{false, false, false}},
		{"table holds 0.5", 5, 3, []Factor{PairTable(0, 1, half, "half"), PairTable(1, 2, neqTable(5), "neq")}, []bool{false, false, true}},
		{"prior holds 2", 5, 3, append(coloring(5), UnaryTable(2, []float64{1, 0, 2, 1, 1}, "w")), []bool{true, true, false}},
		{"opGeneric", 4, 3, []Factor{{Scope: []int{0, 1, 2}, Table: zeroOneRow(rand.New(rand.NewSource(1)), 64, 0.8), Name: "tri"}}, []bool{false, false, false}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := marked(t, c.q, c.factors, c.n); !slices.Equal(got, c.want) {
				t.Fatalf("zero-one marks %v, want %v", got, c.want)
			}
		})
	}
}

// TestCondStatsZeroOne checks that CondStats counts the vertices that take
// the mask draw: the zero-one plans the cache does not cover.
func TestCondStatsZeroOne(t *testing.T) {
	s := zeroOneSpec(t, rand.New(rand.NewSource(7)), 5, 6)
	n := s.G.N()
	if st := Compile(s).CondStats(); st.Cached != n || st.ZeroOne != 0 {
		t.Fatalf("cache on: %+v, want all %d vertices cached and none zero-one", st, n)
	}
	if st := compilePlanOnly(s, DefaultTableCap).CondStats(); st.Cached != 0 || st.ZeroOne != n {
		t.Fatalf("cache off: %+v, want all %d vertices zero-one", st, n)
	}
	if st := compilePlanOnly(batchSpec(t), DefaultTableCap).CondStats(); st.ZeroOne != 0 {
		t.Fatalf("weighted q = 3 spec: %+v, want no zero-one vertex", st)
	}
}
