package experiment

// SuiteParams scales the full experiment suite; Quick shrinks workloads for
// smoke runs.
type SuiteParams struct {
	// Quick selects reduced sizes/trials (CI-friendly).
	Quick bool
	// Seed seeds all randomized experiments.
	Seed int64
}

// Step is one experiment of the suite: the ID of the table it produces and
// the run that produces it.
type Step struct {
	ID  string
	Run func() (*Table, error)
}

// Suite lists every experiment E1–E12 with canonical parameters, in order,
// without running them, so a caller can run a subset. Each table backs one
// claim of the paper; README.md shows how to run the suite (cmd/lbench).
func Suite(p SuiteParams) []Step {
	sizes := []int{16, 32, 64, 128}
	jvvSizes := []int{6, 8, 10}
	jvvTrials := 6000
	e2Runs := 20000
	e12Trials := 4000
	if p.Quick {
		sizes = []int{16, 32, 64}
		jvvSizes = []int{6, 8}
		jvvTrials = 1500
		e2Runs = 4000
		e12Trials = 1200
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return []Step{
		{"E1", func() (*Table, error) { return E1InferenceToSampling(sizes, 1.0, 0.1, p.Seed) }},
		{"E2", func() (*Table, error) { return E2SamplingToInference(12, 1.0, 0.02, e2Runs, p.Seed) }},
		{"E3", func() (*Table, error) { return E3Boosting(10, 1.0, []float64{0.5, 0.2, 0.1}, p.Seed) }},
		{"E4", func() (*Table, error) { return E4LocalJVV(jvvSizes, 1.0, jvvTrials, p.Seed) }},
		{"E4b", func() (*Table, error) { return E4FailureScaling(jvvSizes, 1.0, jvvTrials, p.Seed) }},
		{"E5", func() (*Table, error) { return E5SSMInference(14, 1.0, []int{1, 2, 3, 4, 5}) }},
		{"E6", func() (*Table, error) { return E6InferenceImpliesSSM(13, 1.0, 6) }},
		{"E7", func() (*Table, error) { return E7TVvsMult(13, 1.0, 6) }},
		{"E8", func() (*Table, error) {
			return E8PhaseTransition(3, []float64{0.25, 0.5, 1.0, 2.0, 4.0}, []int{4, 8, 12, 16})
		}},
		{"E8b", func() (*Table, error) {
			return E8RequiredRadius(3, []float64{0.25, 0.5, 2.0, 4.0}, 14, 0.02)
		}},
		{"E9", func() (*Table, error) { return E9Matchings([]int{3, 5, 9, 17, 33}, 1.0, 1e-4, 0) }},
		{"E10", func() (*Table, error) { return E10Colorings(4, []int{5, 6, 7, 8, 10}, 1e-3, 0) }},
		{"E10b", func() (*Table, error) {
			return E10Ising(4, []float64{0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0}, []int{4, 6, 8})
		}},
		{"E10c", func() (*Table, error) {
			return E10Hypergraph(3, 4, []float64{0.5, 0.9, 1.5}, []int{2, 3, 4})
		}},
		{"E11", func() (*Table, error) { return E11Counting([]int{8, 12, 16, 20}, 1.0, 1e-6) }},
		{"E12", func() (*Table, error) {
			return E12RoundsToMix(6, 1.0, []int{1, 2, 4, 8, 16}, e12Trials, p.Seed)
		}},
	}
}
