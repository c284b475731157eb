package dist

import "testing"

// TestMix64Reference pins the mixer to the published SplitMix64 sequence:
// seeding with 0 and stepping by the golden-gamma increment must reproduce
// the reference outputs of Steele, Lea & Flood's generator.
func TestMix64Reference(t *testing.T) {
	want := []uint64{
		0xE220A8397B1DCDAF,
		0x6E789E6AA1B965F4,
		0x06C45D188009454F,
	}
	var state uint64
	for i, w := range want {
		state += 0x9E3779B97F4A7C15
		// Mix64 adds the increment itself, so rewind by one step.
		if got := Mix64(state - 0x9E3779B97F4A7C15); got != w {
			t.Errorf("Mix64 step %d = %#x, want %#x", i, got, w)
		}
	}
}

// TestStreamSeedDecorrelated checks the failure mode the helper exists to
// prevent: consecutive stream indices (and consecutive base seeds) must not
// produce near-identical raw seeds the way seed+i*K or seed^i*K do.
func TestStreamSeedDecorrelated(t *testing.T) {
	seen := make(map[int64]bool)
	for seed := int64(0); seed < 8; seed++ {
		for stream := int64(0); stream < 64; stream++ {
			s := StreamSeed(seed, stream)
			if seen[s] {
				t.Fatalf("StreamSeed(%d, %d) = %d collides", seed, stream, s)
			}
			seen[s] = true
		}
	}
	// Adjacent streams should differ in roughly half their bits.
	for stream := int64(0); stream < 16; stream++ {
		a := uint64(StreamSeed(1, stream))
		b := uint64(StreamSeed(1, stream+1))
		diff := popcount(a ^ b)
		if diff < 12 || diff > 52 {
			t.Errorf("streams %d and %d differ in only %d bits", stream, stream+1, diff)
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
