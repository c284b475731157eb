package spec

// corpus_test.go curates the committed instance corpus under
// testdata/corpus/ and holds it to the schema's contracts. The corpus is
// table-driven — corpusEntries is the source of truth, and the committed
// JSON documents plus the golden partition values are regenerated with
//
//	go test ./internal/spec -run TestCorpus -update
//
// The entries span the paper's regimes: hardcore below/at/above the
// uniqueness threshold λc(Δ) = (Δ−1)^(Δ−1)/(Δ−2)^Δ (λc(3) = 4 on the
// binary tree), the Ising uniqueness interval ((Δ−2)/Δ, Δ/(Δ−2)) = (½, 2)
// endpoints on the Δ = 4 torus, q = Δ and q = 2Δ colorings, a high-degree
// star hub, a monomer–dimer model on the grid's line graph, an arity-3
// hypergraph matching, list coloring, and an explicit weighted CSP with a
// ternary factor, a vertex domain, and a pin.

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"repro/internal/exact"
)

var update = flag.Bool("update", false, "rewrite the corpus documents and golden partition values")

const corpusDir = "../../testdata/corpus"
const goldenFile = "golden_partition.json"

func corpusEntries() []*File {
	hardcoreTree := func(name string, lambda float64) *File {
		return &File{
			Version: Version,
			Name:    name,
			Graph:   Graph{Kind: "tree", N: 15},
			Model:   &Model{Kind: "hardcore", Lambda: lambda},
		}
	}
	isingTorus := func(name string, beta float64) *File {
		return &File{
			Version: Version,
			Name:    name,
			Graph:   Graph{Kind: "torus", N: 3},
			Model:   &Model{Kind: "ising", Beta: beta, Lambda: 1},
		}
	}
	nae := make([]float64, 27)
	for i := range nae {
		a, b, c := i/9, i/3%3, i%3
		if a == b && b == c {
			nae[i] = 0.25
		} else {
			nae[i] = 1
		}
	}
	return []*File{
		// Hardcore on the 15-vertex binary tree (Δ = 3, λc = 4): the
		// uniqueness regime, the critical point, and the non-uniqueness
		// regime where the paper's Ω(diam) lower bound applies.
		hardcoreTree("hardcore-tree15-below", 2),
		hardcoreTree("hardcore-tree15-critical", 4),
		hardcoreTree("hardcore-tree15-above", 6),
		// Ising on the 3×3 torus (Δ = 4): both endpoints of the uniqueness
		// interval (½, 2).
		isingTorus("ising-torus3-low", 0.5),
		isingTorus("ising-torus3-high", 2),
		// Colorings at the q = Δ and q = 2Δ landmarks.
		{
			Version: Version,
			Name:    "coloring-grid3-qeqdelta",
			Graph:   Graph{Kind: "grid", N: 3},
			Model:   &Model{Kind: "coloring", Q: 4},
		},
		{
			Version: Version,
			Name:    "coloring-tree7-q2delta",
			Graph:   Graph{Kind: "tree", N: 7},
			Model:   &Model{Kind: "coloring", Q: 6},
		},
		// A high-degree hub: the star's center has Δ = 11.
		{
			Version: Version,
			Name:    "hardcore-star12-hub",
			Graph:   Graph{Kind: "star", N: 12},
			Model:   &Model{Kind: "hardcore", Lambda: 1.5},
		},
		// Monomer–dimer on the 3×3 grid: the instance lives on the line
		// graph (12 edge-vertices).
		{
			Version: Version,
			Name:    "matching-grid3",
			Graph:   Graph{Kind: "grid", N: 3},
			Model:   &Model{Kind: "matching", Lambda: 2},
		},
		// An arity-3 (3-uniform) hypergraph matching: the instance lives on
		// the intersection graph of the four hyperedges.
		{
			Version: Version,
			Name:    "hypermatching-arity3",
			Graph:   Graph{N: 6, Hyperedges: [][]int{{0, 1, 2}, {2, 3, 4}, {4, 5, 0}, {1, 3, 5}}},
			Model:   &Model{Kind: "hypermatching", Lambda: 1.2},
		},
		// List coloring with genuinely distinct per-vertex palettes.
		{
			Version: Version,
			Name:    "listcoloring-path5",
			Graph:   Graph{Kind: "path", N: 5},
			Model:   &Model{Kind: "listcoloring", Q: 4, Lists: [][]int{{0, 1}, {1, 2, 3}, {0, 2}, {1, 3}, {0, 1, 2, 3}}},
		},
		// An explicit weighted CSP: explicit edges, a ternary factor on a
		// clique, a vertex domain, and a pin — every schema feature the
		// named models don't exercise.
		{
			Version: Version,
			Name:    "wcsp-explicit-pinned",
			Graph:   Graph{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}},
			Q:       3,
			Factors: []Factor{
				{Scope: []int{0}, Table: []float64{1, 2, 0.5}, Name: "field"},
				{Scope: []int{0, 1}, Table: []float64{1, 0.8, 1, 0.8, 1, 1.2, 1, 1.2, 1}, Name: "pair"},
				{Scope: []int{0, 1, 2}, Table: nae, Name: "nae"},
			},
			Domains: []Domain{{V: 3, Allow: []int{0, 2}}},
			Pin:     []Pin{{V: 1, X: 1}},
		},
	}
}

// loadCorpus reads every committed corpus document.
func loadCorpus(t *testing.T) map[string]*File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*File)
	for _, path := range paths {
		if filepath.Base(path) == goldenFile {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := Parse(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[f.Name] = f
	}
	return out
}

// TestCorpusUpToDate pins the committed documents to the table: every
// entry's canonical marshaling must match its file byte for byte, and no
// stray documents may sit in the corpus directory.
func TestCorpusUpToDate(t *testing.T) {
	entries := corpusEntries()
	if len(entries) < 10 {
		t.Fatalf("corpus has %d entries, want ≥ 10", len(entries))
	}
	if *update {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	names := map[string]bool{}
	for _, f := range entries {
		names[f.Name] = true
		data, err := f.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		path := filepath.Join(corpusDir, f.Name+".json")
		if *update {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		committed, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to regenerate)", f.Name, err)
		}
		if !bytes.Equal(committed, data) {
			t.Errorf("%s: committed document differs from the table (run with -update)", f.Name)
		}
	}
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		base := filepath.Base(path)
		if base == goldenFile {
			continue
		}
		if !names[base[:len(base)-len(".json")]] {
			t.Errorf("stray corpus document %s not in the table", base)
		}
	}
}

// readGolden decodes the golden partition values (hex-float strings keyed
// by instance name, so the pins are exact to the bit).
func readGolden(t *testing.T) map[string]float64 {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(corpusDir, goldenFile))
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	var raw map[string]string
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64, len(raw))
	for name, hex := range raw {
		z, err := strconv.ParseFloat(hex, 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = z
	}
	return out
}

// TestCorpusGoldenPartition decodes every corpus document, compiles it,
// and pins its exact partition function bit for bit against the committed
// golden value.
func TestCorpusGoldenPartition(t *testing.T) {
	corpus := loadCorpus(t)
	if *update {
		vals := make(map[string]string, len(corpus))
		for name, f := range corpus {
			b, err := f.Build()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			z, err := exact.Partition(b.Instance)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			vals[name] = strconv.FormatFloat(z, 'x', -1, 64)
		}
		names := make([]string, 0, len(vals))
		for name := range vals {
			names = append(names, name)
		}
		sort.Strings(names)
		var buf bytes.Buffer
		buf.WriteString("{\n")
		for i, name := range names {
			comma := ","
			if i == len(names)-1 {
				comma = ""
			}
			buf.WriteString("  " + strconv.Quote(name) + ": " + strconv.Quote(vals[name]) + comma + "\n")
		}
		buf.WriteString("}\n")
		if err := os.WriteFile(filepath.Join(corpusDir, goldenFile), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden := readGolden(t)
	if len(golden) != len(corpus) {
		t.Errorf("golden file has %d entries, corpus has %d", len(golden), len(corpus))
	}
	for name, f := range corpus {
		t.Run(name, func(t *testing.T) {
			b, err := f.Build()
			if err != nil {
				t.Fatal(err)
			}
			z, err := exact.Partition(b.Instance)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := golden[name]
			if !ok {
				t.Fatalf("no golden value (run with -update)")
			}
			if z != want {
				t.Errorf("Partition = %x, golden %x", z, want)
			}
		})
	}
}

// TestCorpusEncodeRoundTrip re-encodes every compiled corpus instance as
// an explicit-factors document, marshals and re-parses it, and requires
// the rebuilt instance's partition function to match bit for bit.
func TestCorpusEncodeRoundTrip(t *testing.T) {
	for name, f := range loadCorpus(t) {
		t.Run(name, func(t *testing.T) {
			b, err := f.Build()
			if err != nil {
				t.Fatal(err)
			}
			want, err := exact.Partition(b.Instance)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := encode(f.Name, b.Instance)
			if err != nil {
				t.Fatal(err)
			}
			data, err := enc.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			back, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := back.Build()
			if err != nil {
				t.Fatal(err)
			}
			got, err := exact.Partition(rb.Instance)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("round-tripped Partition = %x, want %x", got, want)
			}
		})
	}
}
