package dist

import "testing"

// TestXoshiroReference pins the update rule to the published xoshiro256++
// sequence: from the state {1, 2, 3, 4} the generator must reproduce the
// reference outputs of Blackman & Vigna's implementation.
func TestXoshiroReference(t *testing.T) {
	x := Xoshiro{s0: 1, s1: 2, s2: 3, s3: 4}
	want := []uint64{
		41943041,
		58720359,
		3588806011781223,
		3591011842654386,
		9228616714210784205,
	}
	for i, w := range want {
		if got := x.Uint64(); got != w {
			t.Fatalf("output %d = %d, want %d", i, got, w)
		}
	}
}

// TestXoshiroFloat64Range checks the unit-interval construction: every
// draw lies in [0, 1) and the generator is not stuck.
func TestXoshiroFloat64Range(t *testing.T) {
	x := NewXoshiro(3, 0)
	var sum float64
	for i := 0; i < 4096; i++ {
		f := x.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("draw %d = %v outside [0,1)", i, f)
		}
		sum += f
	}
	// Mean of 4096 uniform draws concentrates near 1/2; a catastrophic
	// seeding bug (constant or near-constant output) lands far away.
	if mean := sum / 4096; mean < 0.4 || mean > 0.6 {
		t.Errorf("mean of 4096 draws = %v, want ≈ 0.5", mean)
	}
}

// TestXoshiroStreamsDecorrelated pins the stream-decorrelation property:
// consecutive stream indices and consecutive base seeds must yield
// generators that disagree on their leading draws, and adjacent streams'
// first outputs must differ in roughly half their bits.
func TestXoshiroStreamsDecorrelated(t *testing.T) {
	seen := make(map[uint64]bool)
	for seed := int64(0); seed < 8; seed++ {
		for stream := int64(0); stream < 64; stream++ {
			x := NewXoshiro(seed, stream)
			first := x.Uint64()
			if seen[first] {
				t.Fatalf("NewXoshiro(%d, %d) first draw %d collides", seed, stream, first)
			}
			seen[first] = true
		}
	}
	for stream := int64(0); stream < 16; stream++ {
		a := NewXoshiro(1, stream)
		b := NewXoshiro(1, stream+1)
		diff := popcount(a.Uint64() ^ b.Uint64())
		if diff < 12 || diff > 52 {
			t.Errorf("streams %d and %d first draws differ in only %d bits", stream, stream+1, diff)
		}
	}
	// The observable symptom of aliased streams: matching leading draws.
	a := NewXoshiro(7, 0)
	b := NewXoshiro(7, 1)
	same := 0
	for i := 0; i < 32; i++ {
		if a.Uint64()%1000 == b.Uint64()%1000 {
			same++
		}
	}
	if same > 4 {
		t.Errorf("adjacent streams agree on %d/32 draws", same)
	}
}

// TestXoshiroZeroGuard checks the all-zero-state escape hatch directly.
func TestXoshiroZeroGuard(t *testing.T) {
	x := Xoshiro{}
	if x.s0|x.s1|x.s2|x.s3 != 0 {
		t.Fatal("zero value not zero state")
	}
	if x.Uint64() != 0 {
		t.Fatal("all-zero state should be the fixed point (documented invalid)")
	}
}

// TestXoshiroIntN covers the bounded draw: n = 1 always yields 0 and
// consumes one word, every draw lies in [0, n), small ranges pass a
// chi-square uniformity check, and a fixed seed reproduces its sequence.
func TestXoshiroIntN(t *testing.T) {
	x := NewXoshiro(5, 0)
	ref := x
	for i := 0; i < 100; i++ {
		if got := x.IntN(1); got != 0 {
			t.Fatalf("IntN(1) = %d", got)
		}
		ref.Uint64()
		if x != ref {
			t.Fatal("IntN(1) consumed other than one word")
		}
	}
	for _, n := range []int{2, 3, 7, 10, 1000, 1<<31 + 11, 1<<62 + 3} {
		for i := 0; i < 2000; i++ {
			if got := x.IntN(n); got < 0 || got >= n {
				t.Fatalf("IntN(%d) = %d out of range", n, got)
			}
		}
	}
	// Chi-square with n−1 degrees of freedom; the bounds are the 0.01% and
	// 99.99% quantiles for 6 and 9 degrees of freedom, so a correct
	// generator fails the fixed seed's draw essentially never.
	for _, c := range []struct {
		n      int
		lo, hi float64
	}{{7, 0.17, 27.9}, {10, 0.66, 33.7}} {
		const draws = 70000
		counts := make([]int, c.n)
		for i := 0; i < draws; i++ {
			counts[x.IntN(c.n)]++
		}
		exp := float64(draws) / float64(c.n)
		chi := 0.0
		for _, k := range counts {
			d := float64(k) - exp
			chi += d * d / exp
		}
		if chi < c.lo || chi > c.hi {
			t.Errorf("IntN(%d): chi-square %.2f outside [%v, %v] (counts %v)", c.n, chi, c.lo, c.hi, counts)
		}
	}
	a, b := NewXoshiro(9, 3), NewXoshiro(9, 3)
	for i := 0; i < 1000; i++ {
		if p, q := a.IntN(37), b.IntN(37); p != q {
			t.Fatalf("draw %d: %d vs %d from one seed", i, p, q)
		}
	}
}

// TestXoshiroUint64nRejects drives the rejection loop: at n = 2^63 + 1
// the threshold 2^64 mod n = 2^63 − 1 rejects about half of all words,
// so draws must consume more words than they return, and every result
// stays below n.
func TestXoshiroUint64nRejects(t *testing.T) {
	const n = 1<<63 + 1
	x := NewXoshiro(11, 0)
	words := 0
	counter := x
	for i := 0; i < 1000; i++ {
		got := x.uint64n(n)
		if got >= n {
			t.Fatalf("uint64n(2^63+1) = %d out of range", got)
		}
		for counter != x {
			counter.Uint64()
			words++
		}
	}
	if words <= 1100 {
		t.Errorf("1000 draws consumed %d words, want the rejection branch to fire (≈ 2000)", words)
	}
}
