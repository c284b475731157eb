package gibbs_test

// share_test.go pins the sharing of conditional-CDF tables: vertices whose
// keys are equal (gibbs.CondKeyForTest) read one rows/meta backing array,
// vertices whose keys differ never do, and every covered vertex's rows,
// meta and neighbor list equal, bit for bit, a build of that vertex
// alone. It is an external test so that it can load the corpus through
// internal/spec, which imports this package.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/spec"
)

// What a sharing case's table count must be.
const (
	// anySharing: whatever the keys give (the corpus documents).
	anySharing = iota
	// perType: at most one table per neighborhood type of a torus —
	// interior, four sides, four corners.
	perType
	// perVertex: one table per covered vertex, since every key differs.
	perVertex
)

// sharingCase is one instance of TestCondTablesShared.
type sharingCase struct {
	name    string
	s       *gibbs.Spec
	sharing int
}

// sharingCases returns every corpus document's spec and four tori: Ising
// on 8² and 64², a 6² torus whose vertices each carry their own field,
// and a 6² torus whose edges each carry their own copy of one table.
func sharingCases(t *testing.T) []sharingCase {
	t.Helper()
	var cases []sharingCase
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		name := filepath.Base(p)
		if name == "golden_partition.json" {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		f, err := spec.Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := f.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, sharingCase{strings.TrimSuffix(name, ".json"), b.Instance.Spec, anySharing})
	}
	if len(cases) == 0 {
		t.Fatal("empty corpus")
	}
	for _, side := range []int{8, 64} {
		s, err := model.Ising(graph.Torus(side, side), 0.8, 1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, sharingCase{fmt.Sprintf("ising-torus%d", side), s, perType})
	}
	g := graph.Torus(6, 6)
	edge := []float64{1.2, 0.7, 0.7, 1.2}
	var fields, explicit []gibbs.Factor
	for v := 0; v < g.N(); v++ {
		fields = append(fields, gibbs.UnaryTable(v, []float64{1, 1 + 0.01*float64(v)}, "field"))
	}
	for _, e := range g.Edges() {
		fields = append(fields, gibbs.PairTable(e.U, e.V, edge, "edge"))
		explicit = append(explicit, gibbs.PairTable(e.U, e.V, slices.Clone(edge), "edge"))
	}
	for _, tc := range []struct {
		name    string
		factors []gibbs.Factor
	}{{"fields-torus6", fields}, {"explicit-torus6", explicit}} {
		s, err := gibbs.NewSpec(g, 2, tc.factors)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, sharingCase{tc.name, s, perVertex})
	}
	return cases
}

func TestCondTablesShared(t *testing.T) {
	for _, tc := range sharingCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			c := gibbs.Compile(tc.s)
			st := c.CondStats()
			if st.Cached == 0 {
				t.Fatalf("cache covers nothing (stats %+v)", st)
			}
			keyArray := map[string]*float64{}
			arrayKey := map[*float64]string{}
			for v := 0; v < c.N(); v++ {
				nbrs, rows, meta, ownNbrs, ownRows, ownMeta := gibbs.CondTableForTest(c, v)
				if rows == nil {
					continue
				}
				if !slices.Equal(nbrs, ownNbrs) {
					t.Fatalf("vertex %d: neighbor list %v, want %v", v, nbrs, ownNbrs)
				}
				if !slices.Equal(meta, ownMeta) {
					t.Fatalf("vertex %d: meta %v, a build of the vertex alone %v", v, meta, ownMeta)
				}
				if len(rows) != len(ownRows) {
					t.Fatalf("vertex %d: %d row entries, want %d", v, len(rows), len(ownRows))
				}
				for i := range rows {
					if math.Float64bits(rows[i]) != math.Float64bits(ownRows[i]) {
						t.Fatalf("vertex %d: row entry %d is %v, a build of the vertex alone %v", v, i, rows[i], ownRows[i])
					}
				}
				key, arr := gibbs.CondKeyForTest(c, v), &rows[0]
				if prev, ok := keyArray[key]; ok && prev != arr {
					t.Fatalf("vertex %d: vertices with key %q read two tables", v, key)
				}
				if prev, ok := arrayKey[arr]; ok && prev != key {
					t.Fatalf("vertex %d: one table serves keys %q and %q", v, prev, key)
				}
				keyArray[key], arrayKey[arr] = arr, key
			}
			if st.Tables != len(arrayKey) {
				t.Fatalf("CondStats.Tables = %d, but covered vertices read %d tables", st.Tables, len(arrayKey))
			}
			switch {
			case tc.sharing == perType && st.Tables > 9:
				t.Fatalf("%d tables for %d covered torus vertices, want at most 9", st.Tables, st.Cached)
			case tc.sharing == perVertex && st.Tables != st.Cached:
				t.Fatalf("%d tables for %d covered vertices whose keys all differ", st.Tables, st.Cached)
			}
		})
	}
}

// TestCondCoversLargeTorus checks that under the default caps the cache
// covers every vertex of the 256² Ising torus: one table per neighborhood
// type leaves the byte budget to the neighbor lists. A cache of one table
// per vertex fits 58 254 of its 65 536 vertices.
func TestCondCoversLargeTorus(t *testing.T) {
	s, err := model.Ising(graph.Torus(256, 256), 0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := gibbs.Compile(s).CondStats()
	if st.Cached != st.Total || st.Total != 256*256 {
		t.Fatalf("cache covers %d of %d vertices (stats %+v), want all", st.Cached, st.Total, st)
	}
	if st.Bytes > gibbs.DefaultCondBytes/8 {
		t.Fatalf("cache takes %d bytes", st.Bytes)
	}
}
