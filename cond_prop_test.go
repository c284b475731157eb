package repro_test

// cond_prop_test.go: the conditional-CDF cache equivalence property. PR 10
// layers per-vertex neighborhood-code LUTs (gibbs.CondCache) under the
// heat-bath kernel; nothing downstream may be able to tell. The test
// pins that corpus-wide: for every instance of testdata/corpus/, on
// compact and forced-wide lattices, every registered batched dynamic
// driven by the adaptive controller must produce BIT-IDENTICAL reports and
// final lattices with the cache disabled (every draw on the sweep-plan
// walk) and enabled — same seed, same uniforms, same symbols. The cache
// coverage itself is asserted non-trivial so the comparison cannot pass
// vacuously.

import (
	"reflect"
	"testing"

	"repro/internal/gibbs"
	"repro/internal/run"
	"repro/internal/sampler"
	"repro/internal/state"
)

func TestCondCacheBitIdenticalAcrossCorpus(t *testing.T) {
	const seed = 20260808
	policy := run.Policy{
		Chains:     6,
		BurnIn:     2,
		MaxSweeps:  10,
		CheckEvery: 2,
		Rhat:       1.1,
		MinESS:     50,
		Workers:    3,
	}
	// Every instance is built twice; the copy whose cache is built under a
	// zero entry cap runs every draw on the sweep-plan walk.
	offs := corpusInstances(t)
	restoreCap := gibbs.SetCondCapForTest(0, 0)
	for _, in := range offs {
		in.Spec.Compiled().Cond()
	}
	restoreCap()
	for name, in := range corpusInstances(t) {
		off := offs[name]
		t.Run(name, func(t *testing.T) {
			st := in.Spec.Compiled().CondStats()
			if st.Cached == 0 || st.Bytes == 0 {
				t.Fatalf("cache covers nothing on %s (stats %+v) — the comparison would be vacuous", name, st)
			}
			if st := off.Spec.Compiled().CondStats(); st.Cached != 0 {
				t.Fatalf("plan-only copy caches %d vertices", st.Cached)
			}
			for _, rep := range []struct {
				name string
				wide bool
			}{{"compact", false}, {"wide", true}} {
				t.Run(rep.name, func(t *testing.T) {
					restore := func() {}
					if rep.wide {
						restore = state.SetCompactLimitForTest(0)
					}
					defer restore()
					for _, dyn := range sampler.MultiNames() {
						t.Run(dyn, func(t *testing.T) {
							repOff, mOff, err := run.One(off, dyn, seed, policy)
							if err != nil {
								t.Fatal(err)
							}
							repOn, mOn, err := run.One(in, dyn, seed, policy)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(repOff, repOn) {
								t.Errorf("cache changed the report:\noff: %+v\non:  %+v", repOff, repOn)
							}
							sameChains(t, mOff, mOn)
						})
					}
				})
			}
		})
	}
}
