package dist

// xoshiro.go is the value-type fast PRNG of every MCMC sampling path:
// the fused kernels of the batched engines, the sequential Glauber chain
// and the LOCAL harnesses all draw from it. math/rand draws cost an
// interface-free but still pointer-chasing call per sample; in the
// batched sweep engine one heat-bath draw happens per (vertex, chain) and
// the generator call is a measurable slice of the whole sweep. Xoshiro is Blackman & Vigna's xoshiro256++ — four words of
// state, two rotates and a handful of xors per draw, passes BigCrush —
// embedded by value in per-worker state so the hot loop touches no
// extra cache line and the compiler can keep the state in registers.
//
// Seeding routes through the same SplitMix64 mixing as SeedStream (the
// fix for the correlated-stream bug of PR 4): NewXoshiro(seed, stream)
// derives the stream's base from StreamSeed and expands it into the four
// state words with the SplitMix64 sequence, per the xoshiro authors'
// recommendation — any two distinct (seed, stream) pairs yield
// decorrelated generators, even for small consecutive integers.

import "math/bits"

// golden is the SplitMix64 increment (2^64 / φ, forced odd).
const golden uint64 = 0x9E3779B97F4A7C15

// Xoshiro is a xoshiro256++ generator. The zero value is NOT a valid
// generator (all-zero state is the fixed point); construct with
// NewXoshiro. Not safe for concurrent use; give each goroutine its own
// stream, exactly like SeedStream.
type Xoshiro struct {
	s0, s1, s2, s3 uint64
}

// NewXoshiro returns the generator of stream `stream` under the base
// seed, decorrelated from every other (seed, stream) pair.
func NewXoshiro(seed, stream int64) Xoshiro {
	z := uint64(StreamSeed(seed, stream))
	var x Xoshiro
	x.s0 = Mix64(z)
	z += golden
	x.s1 = Mix64(z)
	z += golden
	x.s2 = Mix64(z)
	z += golden
	x.s3 = Mix64(z)
	if x.s0|x.s1|x.s2|x.s3 == 0 {
		// Unreachable for SplitMix64 outputs in practice, but the all-zero
		// state would stay zero forever; nudge it off the fixed point.
		x.s3 = golden
	}
	return x
}

// Uint64 returns the next 64 uniform bits. The rotations are
// bits.RotateLeft64, an intrinsic (one ROL) that the inliner prices below
// a helper call, so Uint64 and Float64 both inline into the heat-bath
// loops; CI fails if Float64 stops inlining.
func (x *Xoshiro) Uint64() uint64 {
	result := bits.RotateLeft64(x.s0+x.s3, 23) + x.s0
	t := x.s1 << 17
	x.s2 ^= x.s0
	x.s3 ^= x.s1
	x.s1 ^= x.s2
	x.s0 ^= x.s3
	x.s2 ^= t
	x.s3 = bits.RotateLeft64(x.s3, 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1) built from the top 53 bits
// of one Uint64 — the standard multiply-by-2^-53 construction, matching
// the resolution of math/rand's Float64 without its rejection loop.
func (x *Xoshiro) Float64() float64 {
	return float64(x.Uint64()>>11) * 0x1p-53
}

// IntN returns a uniform int in [0, n) — the vertex pick of the
// sequential Glauber chain. It panics when n <= 0.
func (x *Xoshiro) IntN(n int) int {
	if n <= 0 {
		panic("dist: Xoshiro.IntN needs n > 0")
	}
	return int(x.uint64n(uint64(n)))
}

// uint64n is Lemire's multiply-shift with rejection ("Fast random
// integer generation in an interval", ACM TOMACS 2019): the high word of
// the 128-bit product Uint64()·n is uniform on [0, n) once the low word
// clears 2^64 mod n, which costs one multiply per draw and a division
// only when the low word lands below n.
func (x *Xoshiro) uint64n(n uint64) uint64 {
	hi, lo := bits.Mul64(x.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(x.Uint64(), n)
		}
	}
	return hi
}
