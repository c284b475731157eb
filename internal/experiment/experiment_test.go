package experiment

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/decay"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/model"
)

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("cell (%d,%d) out of range in %s", row, col, tab.ID)
	}
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not a number", row, col, tab.Rows[row][col])
	}
	return v
}

func TestTableString(t *testing.T) {
	tab := &Table{
		ID:      "EX",
		Title:   "demo",
		Claim:   "claim",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}},
		Notes:   []string{"note"},
	}
	s := tab.String()
	for _, want := range []string{"EX", "demo", "claim", "a", "1", "note"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

func TestE1PolylogScaling(t *testing.T) {
	tab, err := E1InferenceToSampling([]int{16, 32, 64}, 1.0, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// rounds/log³n must not blow up across sizes (polylog claim).
	first := cell(t, tab, 0, 4)
	last := cell(t, tab, len(tab.Rows)-1, 4)
	if last > 8*first {
		t.Errorf("rounds/log³n grew from %v to %v — not polylog", first, last)
	}
}

func TestE2WithinBound(t *testing.T) {
	tab, err := E2SamplingToInference(10, 1.0, 0.02, 4000, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		tv := cell(t, tab, i, 3)
		bound := cell(t, tab, i, 4)
		if tv > bound {
			t.Errorf("row %d: error %v exceeds bound %v", i, tv, bound)
		}
	}
}

func TestE3AllWithinBound(t *testing.T) {
	tab, err := E3Boosting(8, 1.0, []float64{0.5, 0.2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tab.Rows {
		if row[3] != "yes" {
			t.Errorf("row %d not within bound: %v", i, row)
		}
	}
}

func TestE4Exactness(t *testing.T) {
	tab, err := E4LocalJVV([]int{6}, 1.0, 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	tv := cell(t, tab, 0, 1)
	envelope := cell(t, tab, 0, 2)
	if tv > envelope {
		t.Errorf("TV %v exceeds noise envelope %v", tv, envelope)
	}
	fail := cell(t, tab, 0, 3)
	if fail > cell(t, tab, 0, 4) {
		t.Errorf("failure rate %v exceeds 5/n", fail)
	}
}

func TestE4FailureScalingBounded(t *testing.T) {
	tab, err := E4FailureScaling([]int{6, 8}, 1.0, 1500, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		if nr := cell(t, tab, i, 2); nr > 6 {
			t.Errorf("n·rate = %v too large", nr)
		}
	}
}

func TestE5ErrorBelowEnvelope(t *testing.T) {
	tab, err := E5SSMInference(12, 1.0, []int{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		tv := cell(t, tab, i, 1)
		env := cell(t, tab, i, 2)
		if tv > env {
			t.Errorf("radius row %d: error %v above envelope %v", i, tv, env)
		}
	}
	// Error must decrease with radius.
	if cell(t, tab, len(tab.Rows)-1, 1) > cell(t, tab, 0, 1)+1e-12 {
		t.Error("error not decreasing with radius")
	}
}

func TestE6MeasuredBelowCertified(t *testing.T) {
	tab, err := E6InferenceImpliesSSM(11, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range tab.Rows {
		if row[3] != "yes" {
			t.Errorf("row %d: measured SSM above certified bound: %v", i, row)
		}
	}
}

func TestE7RatesAgree(t *testing.T) {
	tab, err := E7TVvsMult(11, 1.0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 3 {
		t.Fatalf("too few rows")
	}
	// Both error measures decay along rows.
	for i := 1; i < len(tab.Rows); i++ {
		if cell(t, tab, i, 1) > cell(t, tab, i-1, 1)+1e-12 {
			t.Error("TV not decaying")
		}
		if cell(t, tab, i, 2) > cell(t, tab, i-1, 2)+1e-12 {
			t.Error("mult err not decaying")
		}
	}
}

func TestE8PhaseTransitionDichotomy(t *testing.T) {
	tab, err := E8PhaseTransition(3, []float64{0.25, 4.0}, []int{4, 8, 12, 16})
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 (λ = λc/2): decaying. Row 1 (λ = 2λc): long-range order.
	lastCol := len(tab.Columns) - 1
	if tab.Rows[0][lastCol] != "yes" {
		t.Errorf("subcritical row should decay: %v", tab.Rows[0])
	}
	if tab.Rows[1][lastCol] == "yes" {
		t.Errorf("supercritical row should persist: %v", tab.Rows[1])
	}
	// Quantitative dichotomy: final-depth correlation tiny below, large
	// above.
	subCorr := cell(t, tab, 0, len(tab.Columns)-2)
	supCorr := cell(t, tab, 1, len(tab.Columns)-2)
	if subCorr > 0.02 {
		t.Errorf("subcritical correlation %v did not decay", subCorr)
	}
	if supCorr < 0.1 {
		t.Errorf("supercritical correlation %v decayed unexpectedly", supCorr)
	}
	if _, err := E8PhaseTransition(2, []float64{1}, []int{2}); err == nil {
		t.Error("Δ<3 accepted")
	}
}

func TestE8RequiredRadiusDiverges(t *testing.T) {
	tab, err := E8RequiredRadius(3, []float64{0.25, 4.0}, 14, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	sub := cell(t, tab, 0, 1)
	sup := cell(t, tab, 1, 1)
	if sub >= sup {
		t.Errorf("required radius should diverge above λc: sub=%v sup=%v", sub, sup)
	}
	if int(sup) < 14 {
		t.Errorf("supercritical radius %v should reach the tree depth", sup)
	}
}

func TestE9SqrtDeltaScaling(t *testing.T) {
	tab, err := E9Matchings([]int{3, 5, 9, 17, 33}, 1.0, 1e-4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// depth/√Δ bounded: max/min ratio across a 11x degree range small.
	var ratios []float64
	for i := range tab.Rows {
		ratios = append(ratios, cell(t, tab, i, 4))
	}
	lo, hi := minMax(ratios)
	if hi/lo > 3 {
		t.Errorf("depth/√Δ varies too much: %v", ratios)
	}
	// Depth itself grows with Δ.
	if cell(t, tab, len(tab.Rows)-1, 3) <= cell(t, tab, 0, 3) {
		t.Error("required depth should grow with Δ")
	}
}

func TestE9CrossCheckExplicitGraph(t *testing.T) {
	// The scalar regular-tree recursion and the explicit-graph BGKNT
	// estimator must agree on a small tree: required depth for ε within ±2.
	delta, lambda, eps := 3, 1.0, 1e-3
	scalar, err := matchingTreeDepth(delta, lambda, eps, 100)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.CompleteTree(delta-1, 10)
	m, err := model.Matching(g, lambda)
	if err != nil {
		t.Fatal(err)
	}
	est := decay.NewMatchingEstimator(m)
	pin := dist.NewConfig(m.Spec.N())
	exactM, err := est.Marginal(pin, 0, g.N())
	if err != nil {
		t.Fatal(err)
	}
	explicit := 20
	for r := 1; r <= 20; r++ {
		got, err := est.Marginal(pin, 0, r)
		if err != nil {
			t.Fatal(err)
		}
		tv, err := dist.TV(got, exactM)
		if err != nil {
			t.Fatal(err)
		}
		if tv <= eps {
			explicit = r
			break
		}
	}
	if math.Abs(float64(scalar-explicit)) > 3 {
		t.Errorf("scalar depth %d vs explicit-graph depth %d diverge", scalar, explicit)
	}
}

func TestE10ColoringsDepthShrinks(t *testing.T) {
	tab, err := E10Colorings(4, []int{5, 8, 10}, 1e-3, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Larger palettes need no more depth.
	if cell(t, tab, len(tab.Rows)-1, 2) > cell(t, tab, 0, 2) {
		t.Errorf("required depth should shrink with q: %v", tab.Rows)
	}
}

func TestE10IsingUniquenessDichotomy(t *testing.T) {
	tab, err := E10Ising(4, []float64{0.3, 1.0, 3.0}, []int{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	// b=1 (inside) decays to ~0; b=0.3 (outside, strong antiferro) keeps
	// correlation.
	insideCorr := cell(t, tab, 1, len(tab.Columns)-1)
	outsideCorr := cell(t, tab, 0, len(tab.Columns)-1)
	if insideCorr > 0.01 {
		t.Errorf("uniqueness-regime correlation %v did not decay", insideCorr)
	}
	if outsideCorr < 0.05 {
		t.Errorf("non-uniqueness correlation %v decayed", outsideCorr)
	}
	if tab.Rows[1][1] != "yes" || tab.Rows[0][1] != "no" {
		t.Errorf("uniqueness labels wrong: %v", tab.Rows)
	}
}

func TestE10HypergraphDecayBelowThreshold(t *testing.T) {
	tab, err := E10Hypergraph(3, 4, []float64{0.5, 1.5}, []int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	below := cell(t, tab, 0, len(tab.Columns)-1)
	above := cell(t, tab, 1, len(tab.Columns)-1)
	if below >= above {
		t.Errorf("correlation below threshold (%v) should be smaller than above (%v)", below, above)
	}
}

func TestE11CountingWithinBound(t *testing.T) {
	tab, err := E11Counting([]int{8, 12}, 1.0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		if cell(t, tab, i, 3) > cell(t, tab, i, 4) {
			t.Errorf("row %d: lnZ error above n·ε: %v", i, tab.Rows[i])
		}
	}
	// Lucas numbers: Z(C8) = 47, Z(C12) = 322.
	if math.Abs(cell(t, tab, 0, 1)-47) > 0.01 || math.Abs(cell(t, tab, 1, 1)-322) > 0.05 {
		t.Errorf("Lucas numbers not reproduced: %v", tab.Rows)
	}
}

func TestRunSuiteQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run is slow")
	}
	steps := Suite(SuiteParams{Quick: true, Seed: 7})
	if len(steps) != 16 {
		t.Fatalf("suite lists %d experiments, want 16", len(steps))
	}
	for _, s := range steps {
		tab, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		// cmd/lbench selects steps by table ID before running any.
		if tab.ID != s.ID {
			t.Errorf("step %s produces table %s", s.ID, tab.ID)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s has no rows", tab.ID)
		}
		if tab.String() == "" {
			t.Errorf("%s renders empty", tab.ID)
		}
	}
}

// TestE12ParallelDynamicsMix checks that both parallel dynamics actually
// approach the truth with budget: the final-budget TV must be far below the
// initial one and near the sampling-noise envelope.
func TestE12ParallelDynamicsMix(t *testing.T) {
	trials := 2500
	tab, err := E12RoundsToMix(5, 1.0, []int{0, 2, 8}, trials, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, col := range []int{3, 5, 7} { // luby TV, metro TV, chrom TV
		start := cell(t, tab, 0, col)
		end := cell(t, tab, len(tab.Rows)-1, col)
		if end > 0.5*start {
			t.Errorf("col %d: TV %v -> %v — no mixing observed", col, start, end)
		}
		if end > 0.15 {
			t.Errorf("col %d: final TV %v too far from the envelope", col, end)
		}
	}
	// Glauber with the same sweep budget must also be mixed (sanity that
	// the sweep-equivalent axis is fair).
	if got := cell(t, tab, len(tab.Rows)-1, 1); got > 0.15 {
		t.Errorf("glauber final TV %v", got)
	}
	// The adaptive-driver notes: a stopping time per batched dynamic and
	// the not-applicable marker for the sequential baseline.
	joined := strings.Join(tab.Notes, "\n")
	for _, name := range []string{"luby", "metropolis", "chromatic"} {
		want := name + " stops at R̂ < 1.05"
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %q:\n%s", want, joined)
		}
	}
	if !strings.Contains(joined, "glauber: sequential baseline") {
		t.Errorf("notes missing the glauber not-applicable marker:\n%s", joined)
	}
}
