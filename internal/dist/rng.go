package dist

// rng.go derives independent math/rand streams from a single seed. Every
// concurrent component of the repo (per-node randomness on the LOCAL
// simulator, per-worker streams of the in-process engines) needs
// many generators from one user-visible seed; feeding `seed + i*K` or
// `seed ^ i*K` straight into rand.NewSource produces correlated streams,
// because math/rand's seeding only scrambles the low bits weakly and
// nearby seeds share state. SeedStream routes the (seed, stream) pair
// through a SplitMix64 finalizer first, so any two distinct pairs yield
// decorrelated generators.

import "math/rand"

// Mix64 is the SplitMix64 finalizer: a bijective avalanche mixer whose
// output bits each depend on every input bit. It is the standard way to
// turn structured integers (counters, vertex ids, stream indices) into
// high-entropy seeds.
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// StreamSeed derives the int64 seed of stream i from the base seed: two
// rounds of SplitMix64 over the pair, so that (seed, i) and (seed', i')
// collide only with birthday probability even when both arguments are
// small consecutive integers.
func StreamSeed(seed, stream int64) int64 {
	return int64(Mix64(Mix64(uint64(seed)) + uint64(stream)))
}

// SeedStream returns a fresh rand.Rand for stream i of the base seed. The
// returned generator is not safe for concurrent use; give each goroutine
// (or LOCAL node) its own stream index.
func SeedStream(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(StreamSeed(seed, stream)))
}
