package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.M() != 0 {
		t.Fatalf("got n=%d m=%d, want 5, 0", g.N(), g.M())
	}
	if g.MaxDegree() != 0 {
		t.Fatalf("empty graph max degree = %d", g.MaxDegree())
	}
}

func TestNewNegative(t *testing.T) {
	g := New(-3)
	if g.N() != 0 {
		t.Fatalf("negative n should clamp to 0, got %d", g.N())
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self loop accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out of range accepted")
	}
	if err := g.AddEdge(-1, 2); err == nil {
		t.Error("negative vertex accepted")
	}
}

func TestAddEdgeIdempotent(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 0)
	if g.M() != 1 {
		t.Fatalf("duplicate edge double counted: m=%d", g.M())
	}
}

func TestHasEdgeAndNeighbors(t *testing.T) {
	g := Path(4)
	if !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Error("HasEdge wrong on path")
	}
	nb := g.NeighborsCopy(1)
	if len(nb) != 2 || nb[0] != 0 || nb[1] != 2 {
		t.Errorf("neighbors of 1 in P4 = %v", nb)
	}
}

func TestDegreeAndMaxDegree(t *testing.T) {
	g := Star(5)
	if g.Degree(0) != 4 {
		t.Errorf("star center degree = %d", g.Degree(0))
	}
	if g.MaxDegree() != 4 {
		t.Errorf("star max degree = %d", g.MaxDegree())
	}
	if g.Degree(-1) != 0 || g.Degree(99) != 0 {
		t.Error("out-of-range degree should be 0")
	}
}

func TestEdgesSorted(t *testing.T) {
	g := Cycle(4)
	es := g.Edges()
	if len(es) != 4 {
		t.Fatalf("C4 has %d edges", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].U < es[i-1].U || (es[i].U == es[i-1].U && es[i].V <= es[i-1].V) {
			t.Fatalf("edges not sorted: %v", es)
		}
	}
	for _, e := range es {
		if e.U >= e.V {
			t.Fatalf("edge %v not normalized", e)
		}
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(5)
	d := g.BFSDistances(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("dist(0,%d) = %d, want %d", i, d[i], want)
		}
	}
	// Disconnected graph.
	g2 := New(3)
	g2.MustAddEdge(0, 1)
	d2 := g2.BFSDistances(0)
	if d2[2] != -1 {
		t.Errorf("unreachable vertex distance = %d, want -1", d2[2])
	}
}

func TestDist(t *testing.T) {
	g := Cycle(6)
	if got := g.Dist(0, 3); got != 3 {
		t.Errorf("C6 dist(0,3) = %d, want 3", got)
	}
	if got := g.Dist(0, 5); got != 1 {
		t.Errorf("C6 dist(0,5) = %d, want 1", got)
	}
	if got := g.Dist(2, 2); got != 0 {
		t.Errorf("dist to self = %d", got)
	}
}

func TestBall(t *testing.T) {
	g := Path(7)
	b := g.Ball(3, 2)
	want := []int{1, 2, 3, 4, 5}
	if len(b) != len(want) {
		t.Fatalf("ball = %v, want %v", b, want)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ball = %v, want %v", b, want)
		}
	}
	if got := g.Ball(3, 0); len(got) != 1 || got[0] != 3 {
		t.Errorf("radius-0 ball = %v", got)
	}
	if got := g.Ball(3, -1); got != nil {
		t.Errorf("negative radius ball = %v", got)
	}
}

func TestConnectivity(t *testing.T) {
	if !Cycle(5).IsConnected() {
		t.Error("C5 reported disconnected")
	}
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	if g.IsConnected() {
		t.Error("two components reported connected")
	}
}

func TestSetDiameter(t *testing.T) {
	g := Cycle(8)
	if d := g.SetDiameter([]int{0, 4}); d != 4 {
		t.Errorf("set diameter = %d, want 4", d)
	}
	if d := g.SetDiameter([]int{3}); d != 0 {
		t.Errorf("singleton set diameter = %d", d)
	}
	if d := g.SetDiameter(nil); d != 0 {
		t.Errorf("empty set diameter = %d", d)
	}
}

func TestPower(t *testing.T) {
	g := Path(5)
	p2 := g.Power(2)
	if !p2.HasEdge(0, 2) || !p2.HasEdge(0, 1) || p2.HasEdge(0, 3) {
		t.Error("P5^2 edges wrong")
	}
	p0 := g.Power(0)
	if p0.M() != 0 {
		t.Error("G^0 should be edgeless")
	}
	// Power of the complete graph is itself.
	k := Complete(5)
	if !k.Power(3).Equal(k) {
		t.Error("K5^3 != K5")
	}
}

func TestTriangleFree(t *testing.T) {
	if !Cycle(5).IsTriangleFree() {
		t.Error("C5 has no triangle")
	}
	if Complete(3).IsTriangleFree() {
		t.Error("K3 is a triangle")
	}
}

func TestLineGraph(t *testing.T) {
	// Line graph of P4 (3 edges in a path) is P3.
	lg, edges := Path(4).LineGraph()
	if lg.N() != 3 || lg.M() != 2 {
		t.Fatalf("L(P4): n=%d m=%d", lg.N(), lg.M())
	}
	if len(edges) != 3 {
		t.Fatalf("edge list %v", edges)
	}
	// Line graph of the star K_{1,3} is the triangle.
	ls, _ := Star(4).LineGraph()
	if ls.N() != 3 || ls.M() != 3 {
		t.Fatalf("L(K_{1,3}): n=%d m=%d, want triangle", ls.N(), ls.M())
	}
	// Line graph of C_n is C_n.
	lc, _ := Cycle(6).LineGraph()
	if lc.N() != 6 || lc.M() != 6 || lc.MaxDegree() != 2 {
		t.Fatalf("L(C6) should be C6: %v", lc)
	}
}

func TestEqual(t *testing.T) {
	g := Grid(3, 3)
	h := Grid(3, 3)
	if !g.Equal(h) {
		t.Fatal("equal grids reported different")
	}
	h.MustAddEdge(0, 4) // diagonal
	if g.Equal(h) {
		t.Fatal("an extra edge left the graphs equal")
	}
}

func TestGenerators(t *testing.T) {
	tests := []struct {
		name    string
		g       *Graph
		n, m    int
		maxDeg  int
		connect bool
	}{
		{"path5", Path(5), 5, 4, 2, true},
		{"cycle5", Cycle(5), 5, 5, 2, true},
		{"complete4", Complete(4), 4, 6, 3, true},
		{"star6", Star(6), 6, 5, 5, true},
		{"grid3x4", Grid(3, 4), 12, 17, 4, true},
		{"torus3x3", Torus(3, 3), 9, 18, 4, true},
		{"tree b=2 d=3", CompleteTree(2, 3), 15, 14, 3, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.N() != tc.n {
				t.Errorf("n = %d, want %d", tc.g.N(), tc.n)
			}
			if tc.g.M() != tc.m {
				t.Errorf("m = %d, want %d", tc.g.M(), tc.m)
			}
			if tc.g.MaxDegree() != tc.maxDeg {
				t.Errorf("Δ = %d, want %d", tc.g.MaxDegree(), tc.maxDeg)
			}
			if tc.g.IsConnected() != tc.connect {
				t.Errorf("connected = %v", tc.g.IsConnected())
			}
		})
	}
}

func TestTorusIsRegular(t *testing.T) {
	g := Torus(4, 5)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus vertex %d degree %d", v, g.Degree(v))
		}
	}
}

func TestRandomTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 50} {
		g := RandomTree(n, rng)
		if g.N() != n {
			t.Fatalf("n = %d", g.N())
		}
		if n >= 1 && g.M() != n-1 {
			t.Fatalf("tree on %d vertices has %d edges", n, g.M())
		}
		if !g.IsConnected() {
			t.Fatalf("random tree disconnected, n=%d", n)
		}
	}
}

func TestRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := RandomRegular(20, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("vertex %d degree %d", v, g.Degree(v))
		}
	}
	if _, err := RandomRegular(5, 3, rng); err == nil {
		t.Error("odd n*d accepted")
	}
	if _, err := RandomRegular(4, 4, rng); err == nil {
		t.Error("d >= n accepted")
	}
	if g, err := RandomRegular(6, 0, rng); err != nil || g.M() != 0 {
		t.Error("0-regular should be edgeless")
	}
}

func TestErdosRenyiExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if g := ErdosRenyi(10, 0, rng); g.M() != 0 {
		t.Error("G(n,0) has edges")
	}
	if g := ErdosRenyi(10, 1, rng); g.M() != 45 {
		t.Errorf("G(10,1) has %d edges, want 45", g.M())
	}
}

func TestRandomBipartite(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := RandomBipartite(5, 7, 1, rng)
	if g.M() != 35 {
		t.Fatalf("complete bipartite m = %d", g.M())
	}
	// No intra-part edges.
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			if g.HasEdge(i, j) {
				t.Fatal("left-part edge")
			}
		}
	}
}

func TestBoundedDegreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := BoundedDegreeRandom(40, 4, 30, rng)
	if g.MaxDegree() > 4 {
		t.Fatalf("degree cap violated: %d", g.MaxDegree())
	}
	if !g.IsConnected() {
		t.Fatal("bounded degree random graph disconnected")
	}
}

// Property: for every graph, Ball(v, r) = {u : dist(v, u) <= r and reachable}.
func TestBallMatchesDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(12, 0.25, r)
		v := r.Intn(12)
		rad := r.Intn(5)
		d := g.BFSDistances(v)
		ball := g.Ball(v, rad)
		inBall := make(map[int]bool)
		for _, u := range ball {
			inBall[u] = true
		}
		for u := 0; u < 12; u++ {
			want := d[u] >= 0 && d[u] <= rad
			if inBall[u] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: power graph adjacency equals bounded distance.
func TestPowerMatchesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(10, 0.3, r)
		k := 1 + r.Intn(3)
		p := g.Power(k)
		for u := 0; u < 10; u++ {
			for v := u + 1; v < 10; v++ {
				d := g.Dist(u, v)
				want := d > 0 && d <= k
				if p.HasEdge(u, v) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: line graph degree of edge (u,v) is deg(u)+deg(v)-2.
func TestLineGraphDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(9, 0.35, r)
		lg, edges := g.LineGraph()
		for i, e := range edges {
			if lg.Degree(i) != g.Degree(e.U)+g.Degree(e.V)-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	s := Cycle(4).String()
	if s == "" {
		t.Error("empty string")
	}
}
