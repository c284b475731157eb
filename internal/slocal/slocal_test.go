package slocal

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// greedyColoring is a classic SLOCAL(1) algorithm: each node picks the
// smallest color unused by its already-processed neighbors.
type greedyColoring struct {
	g *graph.Graph
}

func (a *greedyColoring) Passes() int           { return 1 }
func (a *greedyColoring) Locality(_, _ int) int { return 1 }
func (a *greedyColoring) Init(_ int) any        { return -1 }
func (a *greedyColoring) Process(_ int, c *Ctx) error {
	v := c.Node()
	used := map[int]bool{}
	for _, u := range a.g.Neighbors(v) {
		if col, ok := c.read(u).(int); ok && col >= 0 {
			used[col] = true
		}
	}
	col := 0
	for used[col] {
		col++
	}
	c.Write(v, col)
	return nil
}

func TestGreedyColoringAllOrders(t *testing.T) {
	g := graph.Cycle(7)
	rng := rand.New(rand.NewSource(41))
	orders := [][]int{
		IdentityOrder(7),
		ReverseOrder(7),
		RandomOrder(7, rng),
		BoundaryFirstOrder(g),
	}
	for oi, order := range orders {
		res, err := Run(g, &greedyColoring{g: g}, order, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Proper coloring with at most Δ+1 = 3 colors.
		for _, e := range g.Edges() {
			cu := res.States[e.U].(int)
			cv := res.States[e.V].(int)
			if cu == cv {
				t.Errorf("order %d: edge %v monochromatic", oi, e)
			}
			if cu > 2 || cv > 2 {
				t.Errorf("order %d: color exceeds Δ", oi)
			}
		}
		if res.Locality != 1 {
			t.Errorf("locality = %d", res.Locality)
		}
		if res.MaxUsed > 1 {
			t.Errorf("max used radius = %d", res.MaxUsed)
		}
	}
}

// localityViolator tries to read beyond its declared locality.
type localityViolator struct{}

func (a *localityViolator) Passes() int           { return 1 }
func (a *localityViolator) Locality(_, _ int) int { return 1 }
func (a *localityViolator) Init(_ int) any        { return nil }
func (a *localityViolator) Process(_ int, c *Ctx) error {
	if c.Node() == 0 {
		c.read(3) // distance 3 on a path
	}
	return nil
}

func TestLocalityEnforced(t *testing.T) {
	g := graph.Path(5)
	_, err := Run(g, &localityViolator{}, IdentityOrder(5), rand.New(rand.NewSource(1)))
	if err == nil {
		t.Fatal("locality violation not detected")
	}
}

// multiPass checks pass composition: pass 1 writes values, pass 2 sums
// neighbors' values at radius 2.
type multiPass struct {
	g *graph.Graph
}

func (a *multiPass) Passes() int { return 2 }
func (a *multiPass) Locality(p, _ int) int {
	if p == 0 {
		return 0
	}
	return 2
}
func (a *multiPass) Init(_ int) any { return 0 }
func (a *multiPass) Process(p int, c *Ctx) error {
	v := c.Node()
	if p == 0 {
		c.Write(v, v)
		return nil
	}
	sum := 0
	for _, u := range a.g.Ball(v, 2) {
		if x, ok := c.read(u).(int); ok {
			sum += x
		}
	}
	c.Write(v, sum)
	return nil
}

func TestMultiPassLocality(t *testing.T) {
	g := graph.Path(6)
	res, err := Run(g, &multiPass{g: g}, IdentityOrder(6), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	// Lemma 4.4: combined locality r1 + 2*r2 = 0 + 4.
	if res.Locality != 4 {
		t.Errorf("combined locality = %d, want 4", res.Locality)
	}
	// Vertex 0 sums ball {0,1,2} = 3 after pass 2 (values from pass 1 are
	// overwritten in scan order, so later vertices see updated sums — the
	// point is just that multi-pass scans compose without error).
	if res.MaxUsed != 2 {
		t.Errorf("max used = %d", res.MaxUsed)
	}
}

func TestCheckOrder(t *testing.T) {
	if err := CheckOrder(3, []int{0, 1, 2}); err != nil {
		t.Error(err)
	}
	if err := CheckOrder(3, []int{0, 1}); !errors.Is(err, ErrOrder) {
		t.Error("short order accepted")
	}
	if err := CheckOrder(3, []int{0, 1, 1}); !errors.Is(err, ErrOrder) {
		t.Error("duplicate accepted")
	}
	if err := CheckOrder(3, []int{0, 1, 5}); !errors.Is(err, ErrOrder) {
		t.Error("out of range accepted")
	}
}

func TestOrderGenerators(t *testing.T) {
	if got := IdentityOrder(3); got[0] != 0 || got[2] != 2 {
		t.Errorf("identity = %v", got)
	}
	if got := ReverseOrder(3); got[0] != 2 || got[2] != 0 {
		t.Errorf("reverse = %v", got)
	}
	rng := rand.New(rand.NewSource(3))
	if err := CheckOrder(10, RandomOrder(10, rng)); err != nil {
		t.Error(err)
	}
	g := graph.Path(5)
	bf := BoundaryFirstOrder(g)
	if err := CheckOrder(5, bf); err != nil {
		t.Error(err)
	}
	if bf[0] != 4 {
		t.Errorf("boundary-first should start farthest from 0: %v", bf)
	}
	if bf[len(bf)-1] != 0 {
		t.Errorf("boundary-first should end at 0: %v", bf)
	}
}

func TestRunBadOrder(t *testing.T) {
	g := graph.Path(3)
	if _, err := Run(g, &greedyColoring{g: g}, []int{0, 0, 1}, rand.New(rand.NewSource(4))); err == nil {
		t.Error("bad order accepted")
	}
}
