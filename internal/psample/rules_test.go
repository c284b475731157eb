package psample

// rules_test.go pins the cached chromatic class schedule: ClassSchedule
// must be a proper partition of the free vertices into independent sets of
// the interaction graph, computed exactly once per Rules (repeated batch
// construction must not recolor the graph).

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
)

func TestClassScheduleCachedAndProper(t *testing.T) {
	spec, err := model.Hardcore(graph.Torus(4, 5), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	pin := dist.NewConfig(spec.N())
	pin[3] = model.Out
	in, err := gibbs.NewInstance(spec, pin)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RulesOf(in)
	if err != nil {
		t.Fatal(err)
	}
	classes := r.ClassSchedule()
	// Caching: the second call must hand back the same backing schedule,
	// not a recoloring.
	again := r.ClassSchedule()
	if len(classes) == 0 || len(again) != len(classes) || &again[0] != &classes[0] {
		t.Fatalf("ClassSchedule not cached: %p/%d vs %p/%d", &again[0], len(again), &classes[0], len(classes))
	}
	// Partition: every free vertex in exactly one class, pinned in none.
	seen := make(map[int]int)
	for k, class := range classes {
		if len(class) == 0 {
			t.Errorf("class %d empty", k)
		}
		for _, v := range class {
			if !r.Free(v) {
				t.Errorf("pinned vertex %d scheduled in class %d", v, k)
			}
			seen[v]++
		}
	}
	for v := 0; v < r.n; v++ {
		want := 0
		if r.Free(v) {
			want = 1
		}
		if seen[v] != want {
			t.Errorf("vertex %d scheduled %d times, want %d", v, seen[v], want)
		}
	}
	// Independence: no interaction edge inside a class (the correctness
	// requirement of simultaneous heat-bath updates).
	g := in.Spec.G
	for k, class := range classes {
		for i, u := range class {
			for _, w := range class[i+1:] {
				if g.HasEdge(u, w) {
					t.Errorf("class %d contains edge (%d,%d)", k, u, w)
				}
			}
		}
	}
}
