package spec

// roundtrip_test.go is the encoder's contract: every instance the
// internal/model builders produce — all factors table-backed, including
// the matching models on their derived graphs — serializes through the
// schema and rebuilds to an instance whose exact partition function
// matches the original bit for bit (math.Float64bits equality, not an
// epsilon).

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/exact"
	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
)

// builderInstances constructs one instance per model builder, plus pinned
// variants, directly through the internal/model API.
func builderInstances(t *testing.T) map[string]*gibbs.Instance {
	t.Helper()
	out := make(map[string]*gibbs.Instance)
	mk := func(name string, spec *gibbs.Spec, err error, pinned dist.Config) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		in, err := gibbs.NewInstance(spec, pinned)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = in
	}

	hc, err := model.Hardcore(graph.Cycle(8), 1.7)
	mk("hardcore", hc, err, nil)

	hcPin, err := model.Hardcore(graph.Path(6), 0.9)
	pin := dist.NewConfig(6)
	pin[0], pin[3] = model.Out, model.Out
	mk("hardcore-pinned", hcPin, err, pin)

	is, err := model.Ising(graph.Torus(3, 3), 0.7, 1.3)
	mk("ising", is, err, nil)

	ts, err := model.TwoSpin(graph.Cycle(6), model.TwoSpinParams{Beta: 1.4, Gamma: 0.6, Lambda: 0.8})
	mk("twospin", ts, err, nil)

	col, err := model.Coloring(graph.Grid(3, 3), 4)
	mk("coloring", col, err, nil)

	lc, err := model.ListColoring(graph.Path(5), 4,
		[][]int{{0, 1}, {1, 2, 3}, {0, 2}, {1, 3}, {0, 1, 2, 3}})
	mk("listcoloring", lc, err, nil)

	mm, err := model.Matching(graph.Grid(3, 3), 2.1)
	if err != nil {
		t.Fatal(err)
	}
	mk("matching", mm.Spec, nil, nil)

	h := graph.NewHypergraph(6)
	for _, e := range [][]int{{0, 1, 2}, {2, 3, 4}, {4, 5, 0}, {1, 3, 5}} {
		if err := h.AddEdge(e...); err != nil {
			t.Fatal(err)
		}
	}
	hm, err := model.HypergraphMatching(h, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	mk("hypermatching", hm.Spec, nil, nil)

	return out
}

// TestBuilderRoundTrip encodes each builder instance, marshals it to the
// canonical document, re-parses and rebuilds, and compares the exact
// partition functions by bit pattern.
func TestBuilderRoundTrip(t *testing.T) {
	for name, in := range builderInstances(t) {
		t.Run(name, func(t *testing.T) {
			want, err := exact.Partition(in)
			if err != nil {
				t.Fatal(err)
			}
			f, err := encode(name, in)
			if err != nil {
				t.Fatal(err)
			}
			data, err := f.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			back, err := Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			b, err := back.Build()
			if err != nil {
				t.Fatal(err)
			}
			got, err := exact.Partition(b.Instance)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("Partition bits changed across the round trip: %x vs %x", got, want)
			}
			// The rebuilt instance must agree on shape, not just on Z.
			if b.Instance.N() != in.N() || b.Instance.Q() != in.Q() {
				t.Errorf("shape changed: n=%d q=%d, want n=%d q=%d", b.Instance.N(), b.Instance.Q(), in.N(), in.Q())
			}
		})
	}
}

// TestEncodeWithGraphVerifies pins encodeWithGraph's declaration check: a
// generator kind matching the instance's interaction graph is accepted
// and round-trips, a mismatched one is a typed error.
func TestEncodeWithGraphVerifies(t *testing.T) {
	spec, err := model.Hardcore(graph.Cycle(8), 1.7)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gibbs.NewInstance(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := encodeWithGraph("hc", Graph{Kind: "cycle", N: 8}, in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := exact.Partition(in)
	got, _ := exact.Partition(b.Instance)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("named-generator round trip changed Z: %x vs %x", got, want)
	}
	if _, err := encodeWithGraph("hc", Graph{Kind: "path", N: 8}, in); err == nil {
		t.Error("mismatched generator declaration accepted")
	}
	var se *Error
	if _, err := encodeWithGraph("hc", Graph{Kind: "nosuch", N: 8}, in); !asSpecError(err, &se) {
		t.Errorf("unknown generator returned %v, want *Error", err)
	}
}

func asSpecError(err error, target **Error) bool {
	if err == nil {
		return false
	}
	e, ok := err.(*Error)
	if ok {
		*target = e
	}
	return ok
}
