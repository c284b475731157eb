package sampler

// golden_test.go pins the chromatic engine's trajectories symbol for
// symbol. The engine is otherwise checked only against itself and the
// exact law, so a kernel rewrite that changes the RNG order, the chain
// grouping or a single draw would pass those tests; these goldens catch it.
// Every case must produce the same digests on compact and wide cells and
// with the conditional-CDF cache on and off (the plan walk is forced by
// building the cache under a zero entry cap), because the kernels are
// bit-identical across both representations and both paths.

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/psample"
	"repro/internal/spec"
	"repro/internal/state"
)

// goldenChunk is the digest of a Batch after one Run chunk: an FNV-64a
// hash of every chain's configuration (chain-outer, vertex-inner, one
// byte per cell read through Lattice.Get) and the Updates counter.
type goldenChunk struct {
	hash    uint64
	updates int64
}

// batchGolden holds five Run(2) chunks per (instance, B, workers) case.
var batchGolden = map[string][5]goldenChunk{
	"coloring3-cycle6/B=1/w=1":       {{0x8d0591358d13cba5, 12}, {0x486c274f5427c143, 24}, {0xcd088146398ad16b, 36}, {0x95b5d93592019255, 48}, {0x3596b1c2c7a85da, 60}},
	"coloring3-cycle6/B=1/w=3":       {{0x95b5d93592019255, 12}, {0x8d0591358d13cba5, 24}, {0x5123384f591b492c, 36}, {0x9b5010cf91e72de7, 48}, {0xc5f9ff249650364b, 60}},
	"coloring3-cycle6/B=16/w=1":      {{0x147e17b9f91893ac, 192}, {0xcc287eda5740c90a, 384}, {0x4514a0a5185b08ab, 576}, {0x56a3180fe1e34b38, 768}, {0xb4ef166e79607eff, 960}},
	"coloring3-cycle6/B=16/w=3":      {{0x37942be78c1d1fc7, 192}, {0xcacd8b5d5ffc7fde, 384}, {0xa126ad71c1ec4143, 576}, {0x184c1c2599bcd529, 768}, {0xffbff9fe2d195f40, 960}},
	"coloring3-cycle6/B=300/w=1":     {{0x1ac4142f884a5884, 3600}, {0xdb1a626a6cac2e5d, 7200}, {0x7751b554587ff1d9, 10800}, {0xbe7169229e33dbac, 14400}, {0xa534fa1db1ff9e6d, 18000}},
	"coloring3-cycle6/B=300/w=3":     {{0xccc98d876e4f0d16, 3600}, {0x7f156747fbf40b5f, 7200}, {0x2e614e56086a9f63, 10800}, {0xcf40a368a2f89a51, 14400}, {0xceaf09dd9e511e81, 18000}},
	"coloring5-grid3/B=1/w=1":        {{0x42377833f54d06cb, 18}, {0x4a2fbf69b115dc87, 36}, {0x1ef55ac03cf46988, 54}, {0x513401ae68cb71eb, 72}, {0x107de0f3d6cb853e, 90}},
	"coloring5-grid3/B=1/w=3":        {{0x70d91a2ad76fe338, 18}, {0xe2c895f6d9aad401, 36}, {0x15f4791d9e674bfd, 54}, {0xfcb0ed93cd4f30af, 72}, {0x55963135e4ef22c, 90}},
	"coloring5-grid3/B=16/w=1":       {{0x71f0d9f5731c4e51, 288}, {0x4b8cba569b838896, 576}, {0xa3d31b375c1f2425, 864}, {0x8d88987d182f479f, 1152}, {0xedba582e322315b0, 1440}},
	"coloring5-grid3/B=16/w=3":       {{0x5d64dc3496d6f889, 288}, {0x3a39a2414d820f3e, 576}, {0x45f89eed34d65744, 864}, {0xa57d9eb7395c2d50, 1152}, {0x8fc243b6f429715e, 1440}},
	"coloring5-grid3/B=300/w=1":      {{0xc2fc5651fb28a5df, 5400}, {0xa0d44eef9b9ebe95, 10800}, {0xf45a71bea52d9208, 16200}, {0xd5937fd34ca3d4c5, 21600}, {0x96d1015995af4bae, 27000}},
	"coloring5-grid3/B=300/w=3":      {{0x8534d697e22ded12, 5400}, {0xbb7e949599bef296, 10800}, {0x75265324625b4b24, 16200}, {0xc72d40c0be61b4cb, 21600}, {0xa188e6c262f1cf76, 27000}},
	"hardcore-torus4/B=1/w=1":        {{0x1296db2e2fb80637, 32}, {0x5b6c25ebb83c8e12, 64}, {0xc3f8578c6b166595, 96}, {0xb0d690b4d7a73eab, 128}, {0x5fe54086a9a9c205, 160}},
	"hardcore-torus4/B=1/w=3":        {{0x42d148bf1f3aacb0, 32}, {0x1a10ffddc80567c5, 64}, {0xfc7e800c054f819c, 96}, {0x9d8dfb9e52f917e4, 128}, {0x42d9482908c6fe92, 160}},
	"hardcore-torus4/B=16/w=1":       {{0x341bacd717d2b99d, 512}, {0xaf2f25f9f80ba34b, 1024}, {0xe01befd07ca3deba, 1536}, {0xe541bdeb952ba8f1, 2048}, {0xa0ba84ab7c921ca5, 2560}},
	"hardcore-torus4/B=16/w=3":       {{0x7ededd984a077658, 512}, {0x3a9edf75ff2ada64, 1024}, {0xe5a09756ee394500, 1536}, {0x4e91dab0ec82c8c7, 2048}, {0x5e6f5f0a7b876c46, 2560}},
	"hardcore-torus4/B=300/w=1":      {{0x2b0bec40f251b65e, 9600}, {0x3c7009b295319685, 19200}, {0xc2c19db1a8a5f421, 28800}, {0xdd2736c513fa5f62, 38400}, {0xf34450dc46ed75a5, 48000}},
	"hardcore-torus4/B=300/w=3":      {{0x3eec43919af4a776, 9600}, {0x29fe33c623b5c879, 19200}, {0xe44733720949d365, 28800}, {0x62d5503626e22cb8, 38400}, {0xf5f95a397914914, 48000}},
	"wcsp-explicit-pinned/B=1/w=1":   {{0xb5d447774c805975, 6}, {0x84715590455191d2, 12}, {0xb5d445774c80560f, 18}, {0x447f637f98e8fbd9, 24}, {0x8474b99045547195, 30}},
	"wcsp-explicit-pinned/B=1/w=3":   {{0xb5d447774c805975, 6}, {0x84715590455191d2, 12}, {0xb5d445774c80560f, 18}, {0x447f637f98e8fbd9, 24}, {0x8474b99045547195, 30}},
	"wcsp-explicit-pinned/B=16/w=1":  {{0x43a36672f477dfcb, 96}, {0xfb3cea0d07e85df4, 192}, {0x1d2de9e967a552db, 288}, {0x70c2fb119d34bac, 384}, {0x7f2f376066da9b63, 480}},
	"wcsp-explicit-pinned/B=16/w=3":  {{0x43a36672f477dfcb, 96}, {0xfb3cea0d07e85df4, 192}, {0x1d2de9e967a552db, 288}, {0x70c2fb119d34bac, 384}, {0x7f2f376066da9b63, 480}},
	"wcsp-explicit-pinned/B=300/w=1": {{0x4dc90b7e0b3872, 1800}, {0x16c735de42774da9, 3600}, {0xd5897af9674c8fb8, 5400}, {0x5a6a8c3d630895c5, 7200}, {0x20c530bbbe786d7, 9000}},
	"wcsp-explicit-pinned/B=300/w=3": {{0x5023997733cc9bf8, 1800}, {0xd8ff453e26c599d7, 3600}, {0x6fd0222caebb05dc, 5400}, {0x8fba017bdb138bb0, 7200}, {0x6f18df36be182bde, 9000}},
}

// goldenInstances builds the four instances of TestBatchGolden fresh on
// every call, so each case compiles (and caches) its own engine.
func goldenInstances(t *testing.T) map[string]*gibbs.Instance {
	t.Helper()
	out := map[string]*gibbs.Instance{}
	hc, err := model.Hardcore(graph.Torus(4, 4), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	col, err := model.Coloring(graph.Grid(3, 3), 5)
	if err != nil {
		t.Fatal(err)
	}
	col3, err := model.Coloring(graph.Cycle(6), 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*gibbs.Spec{"hardcore-torus4": hc, "coloring5-grid3": col, "coloring3-cycle6": col3} {
		in, err := gibbs.NewInstance(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = in
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "corpus", "wcsp-explicit-pinned.json"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := spec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	out["wcsp-explicit-pinned"] = b.Instance
	return out
}

// digest hashes every chain's configuration of the batch.
func digest(t *testing.T, b *Batch) uint64 {
	t.Helper()
	lat := b.Lattice()
	h := fnv.New64a()
	cell := make([]byte, 1)
	for c := 0; c < lat.Chains(); c++ {
		for v := 0; v < lat.N(); v++ {
			x := lat.Get(v, c)
			if x < 0 || x > 255 {
				t.Fatalf("cell (%d, %d) = %d", v, c, x)
			}
			cell[0] = byte(x)
			h.Write(cell)
		}
	}
	return h.Sum64()
}

// TestBatchGolden runs the chromatic engine on hardcore Torus(4,4), the
// 5-colouring of Grid(3,3), the corpus's pinned WCSP (q = 3, a unary
// prior, pair and arity-3 factors, a pin) and the 3-colouring of Cycle(6)
// (the q = 3 pair-only draw) at B ∈ {1, 16, 300} — B = 300 leaves a ragged
// last chain group at every q here — with 1 and 3 workers, and checks the
// digest after each of five Run(2) chunks against the recorded goldens, on
// compact and wide cells, with the cache on and off.
func TestBatchGolden(t *testing.T) {
	for _, name := range []string{"hardcore-torus4", "coloring5-grid3", "wcsp-explicit-pinned", "coloring3-cycle6"} {
		for _, B := range []int{1, 16, 300} {
			for _, workers := range []int{1, 3} {
				key := fmt.Sprintf("%s/B=%d/w=%d", name, B, workers)
				want, ok := batchGolden[key]
				for _, wide := range []bool{false, true} {
					for _, cache := range []bool{true, false} {
						sub := fmt.Sprintf("%s/wide=%v/cache=%v", key, wide, cache)
						t.Run(sub, func(t *testing.T) {
							got := runGolden(t, name, B, workers, wide, cache)
							if !ok {
								t.Fatalf("no golden; recorded run: %q: {%s},", key, fmtChunks(got))
							}
							for i := range got {
								if got[i] != want[i] {
									t.Fatalf("chunk %d: got {%#x, %d}, want {%#x, %d}",
										i, got[i].hash, got[i].updates, want[i].hash, want[i].updates)
								}
							}
						})
					}
				}
			}
		}
	}
}

// runGolden builds one case and returns its five chunk digests.
func runGolden(t *testing.T, name string, B, workers int, wide, cache bool) [5]goldenChunk {
	t.Helper()
	in := goldenInstances(t)[name]
	if !cache {
		restore := gibbs.SetCondCapForTest(0, 0)
		defer restore()
	}
	eng := in.Spec.Compiled()
	st := eng.CondStats()
	if cache && st.Cached == 0 || !cache && st.Cached != 0 {
		t.Fatalf("cond cache covers %d of %d vertices, want cache=%v", st.Cached, st.Total, cache)
	}
	r, err := psample.NewRules(in)
	if err != nil {
		t.Fatal(err)
	}
	restoreCells := func() {}
	if wide {
		restoreCells = state.SetCompactLimitForTest(0)
	}
	b, err := NewBatch(r, B, 17)
	restoreCells()
	if err != nil {
		t.Fatal(err)
	}
	if b.Lattice().Compact() == wide {
		t.Fatalf("lattice compact=%v, want %v", b.Lattice().Compact(), !wide)
	}
	b.SetWorkers(workers)
	var got [5]goldenChunk
	for i := range got {
		if err := b.Run(2); err != nil {
			t.Fatal(err)
		}
		got[i] = goldenChunk{digest(t, b), b.Updates()}
	}
	return got
}

func fmtChunks(c [5]goldenChunk) string {
	s := ""
	for i, x := range c {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("{%#x, %d}", x.hash, x.updates)
	}
	return s
}
