package dist

import (
	"math"
	"testing"
)

// TestCDFMatchesSampleWalk pins CDF.SampleU to sampleWalk over a grid of
// uniforms on weight vectors with zeros, leading zeros, trailing zeros,
// and point masses — the exact-identity contract the batched proposal
// draws rely on.
func TestCDFMatchesSampleWalk(t *testing.T) {
	rows := []Dist{
		{0.5, 0.5},
		{1},
		{0, 1},
		{1, 0},
		{0.25, 0, 0.75},
		{0, 0, 1},
		{0.2, 0.3, 0, 0.5},
		{0.1, 0.2, 0.3, 0.4},
		{0, 0.5, 0.5, 0},
	}
	for ri, d := range rows {
		c := NewCDF(d)
		if c.K() != len(d) {
			t.Fatalf("row %d: K() = %d, want %d", ri, c.K(), len(d))
		}
		for i := 0; i <= 1000; i++ {
			u := float64(i) / 1000 * (1 - 1e-12)
			if got, want := c.SampleU(u), sampleWalk(d, u); got != want {
				t.Fatalf("row %d u=%v: CDF %d, sampleWalk %d", ri, u, got, want)
			}
		}
		// The exact cumulative boundaries are where off-by-one slips hide.
		acc := 0.0
		for _, x := range d {
			if x > 0 {
				acc += x
			}
			for _, u := range []float64{acc, math.Nextafter(acc, 0), math.Nextafter(acc, 2)} {
				if u < 0 || u >= 1 {
					continue
				}
				if got, want := c.SampleU(u), sampleWalk(d, u); got != want {
					t.Fatalf("row %d boundary u=%v: CDF %d, sampleWalk %d", ri, u, got, want)
				}
			}
		}
	}
}

// TestCDFDrawMatchesSampleWalk runs a shadow generator: Draw and
// sampleWalk consume one uniform each, so identical streams must yield
// identical symbol sequences.
func TestCDFDrawMatchesSampleWalk(t *testing.T) {
	d := Dist{0.1, 0, 0.4, 0.5}
	c := NewCDF(d)
	a := NewXoshiro(42, 7)
	b := a
	for i := 0; i < 2000; i++ {
		if got, want := c.Draw(&a), sampleWalk(d, b.Float64()); got != want {
			t.Fatalf("draw %d: CDF %d, sampleWalk %d", i, got, want)
		}
	}
}

// TestCDFZeroMass checks the degenerate rows: an all-zero or empty row has
// no positive symbol to fall back to.
func TestCDFZeroMass(t *testing.T) {
	for _, d := range []Dist{nil, {}, {0, 0, 0}} {
		c := NewCDF(d)
		if got := c.SampleU(0.5); got != -1 {
			t.Errorf("zero-mass row %v: SampleU = %d, want -1", d, got)
		}
	}
}

// TestSampleWeightsValidatesAndDraws checks that SampleWeights validates
// like FromWeights and draws, for each uniform of a shadow generator,
// exactly the symbol sampleWalk picks on the unnormalized row.
func TestSampleWeightsValidatesAndDraws(t *testing.T) {
	rng := NewXoshiro(1, 0)
	if _, err := SampleWeights(nil, &rng); err == nil {
		t.Error("empty weights accepted")
	}
	if _, err := SampleWeights([]float64{0, 0}, &rng); err == nil {
		t.Error("zero-mass weights accepted")
	}
	if _, err := SampleWeights([]float64{1, -1}, &rng); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := SampleWeights([]float64{1, math.Inf(1)}, &rng); err == nil {
		t.Error("infinite weight accepted")
	}
	w := []float64{2, 0, 6}
	counts := make([]int, len(w))
	for i := 0; i < 4000; i++ {
		shadow := rng
		x, err := SampleWeights(w, &rng)
		if err != nil {
			t.Fatal(err)
		}
		if want := sampleWalk(w, shadow.Float64()*8); x != want {
			t.Fatalf("draw %d: SampleWeights %d, sampleWalk %d", i, x, want)
		}
		if rng != shadow {
			t.Fatalf("draw %d: SampleWeights consumed more than one uniform", i)
		}
		counts[x]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight symbol drawn %d times", counts[1])
	}
	if counts[0] == 0 || counts[2] == 0 {
		t.Errorf("positive symbols starved: %v", counts)
	}
}
