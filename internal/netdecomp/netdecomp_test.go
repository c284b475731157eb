package netdecomp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func TestBallCarvingValid(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, g := range []*graph.Graph{
		graph.Cycle(20),
		graph.Grid(6, 6),
		graph.Path(30),
		graph.Complete(8),
		graph.CompleteTree(2, 4),
	} {
		d, err := BallCarving(g, Params{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(g, 0); err != nil {
			t.Errorf("%v: %v", g, err)
		}
	}
}

func TestBallCarvingBounds(t *testing.T) {
	// On moderately sized graphs, colors and diameters should be
	// logarithmic with overwhelming probability.
	rng := rand.New(rand.NewSource(52))
	g := graph.Torus(8, 8)
	n := g.N()
	logn := math.Log2(float64(n + 1))
	failTotal := 0
	const trials = 20
	for i := 0; i < trials; i++ {
		d, err := BallCarving(g, Params{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(g, 0); err != nil {
			t.Fatal(err)
		}
		if float64(d.Colors) > 4*logn+2 {
			t.Errorf("colors = %d exceeds budget", d.Colors)
		}
		if float64(d.Diameter) > 4*logn+2 {
			t.Errorf("diameter = %d exceeds bound", d.Diameter)
		}
		failTotal += d.FailureCount()
	}
	// Failures should be extremely rare (expected < 1/n² per run).
	if failTotal > 1 {
		t.Errorf("%d failures over %d trials", failTotal, trials)
	}
}

func TestBallCarvingEmptyGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	if _, err := BallCarving(graph.New(0), Params{}, rng); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestBallCarvingSingleton(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	d, err := BallCarving(graph.New(1), Params{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(graph.New(1), 0); err != nil {
		t.Fatal(err)
	}
	if d.Cluster[0] < 0 {
		t.Error("singleton unassigned")
	}
}

func TestBallCarvingTinyBudgetFails(t *testing.T) {
	// With one phase and radius 1 on a long path, many vertices should
	// remain uncarved and be flagged as failed — failures must be certified,
	// never silent.
	rng := rand.New(rand.NewSource(55))
	g := graph.Path(200)
	sawFailure := false
	for i := 0; i < 10 && !sawFailure; i++ {
		d, err := BallCarving(g, Params{ColorBudget: 1, RadiusBudget: 1}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(g, 0); err != nil {
			t.Fatal(err)
		}
		sawFailure = d.FailureCount() > 0
	}
	if !sawFailure {
		t.Error("starved decomposition never reported failures")
	}
}

func TestScheduleOrderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	g := graph.Grid(5, 5)
	d, err := BallCarving(g, Params{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	order := d.ScheduleOrder()
	if len(order) != g.N() {
		t.Fatalf("order length %d", len(order))
	}
	seen := make([]bool, g.N())
	for _, v := range order {
		if v < 0 || v >= g.N() || seen[v] {
			t.Fatalf("order not a permutation: %v", order)
		}
		seen[v] = true
	}
	// Colors must appear in nondecreasing order.
	lastColor := -1
	for _, v := range order {
		c := d.Color[d.Cluster[v]]
		if c < lastColor {
			t.Fatal("schedule order violates color monotonicity")
		}
		lastColor = c
	}
}

func TestSimulationRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	g := graph.Cycle(16)
	d, err := BallCarving(g, Params{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	r0 := d.SimulationRounds(0)
	r2 := d.SimulationRounds(2)
	if r2 <= r0 {
		t.Errorf("rounds should grow with locality: %d vs %d", r2, r0)
	}
	if r0 <= 0 {
		t.Errorf("rounds = %d", r0)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	g := graph.Cycle(10)
	d, err := BallCarving(g, Params{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: move vertex 0 to a bogus cluster.
	d.Cluster[0] = 999
	if err := d.Validate(g, 0); err == nil {
		t.Error("corrupted decomposition validated")
	}
}

func TestPowerGraphDecomposition(t *testing.T) {
	// The Lemma 3.1 use case: decompose G^(r+1).
	rng := rand.New(rand.NewSource(59))
	g := graph.Cycle(24)
	p := g.Power(3)
	d, err := BallCarving(p, Params{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(p, 0); err != nil {
		t.Fatal(err)
	}
	// Same-color clusters are non-adjacent in G^3, i.e. at distance > 3
	// in G — exactly the independence the chromatic scheduler needs.
	for _, e := range p.Edges() {
		cu, cv := d.Cluster[e.U], d.Cluster[e.V]
		if cu != cv && d.Color[cu] == d.Color[cv] {
			t.Fatalf("power-graph adjacency violated")
		}
	}
}

// Property: on random graphs of every density, ball carving yields a valid
// decomposition whose schedule order is a permutation.
func TestBallCarvingRandomGraphsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(40)
		g := graph.ErdosRenyi(n, r.Float64(), r)
		d, err := BallCarving(g, Params{}, r)
		if err != nil {
			return false
		}
		if err := d.Validate(g, 0); err != nil {
			return false
		}
		order := d.ScheduleOrder()
		seen := make([]bool, n)
		for _, v := range order {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(order) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// Property: cluster diameters never exceed twice the radius budget (each
// cluster sits inside a carved ball).
func TestBallCarvingDiameterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := graph.ErdosRenyi(24, 0.15, r)
		p := Params{RadiusBudget: 3}
		d, err := BallCarving(g, p, r)
		if err != nil {
			return false
		}
		for c, members := range d.Members {
			failed := false
			for _, v := range members {
				if d.Failed[v] {
					failed = true
				}
			}
			if failed {
				continue
			}
			if dd := g.SetDiameter(members); dd > 2*p.RadiusBudget {
				_ = c
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}
