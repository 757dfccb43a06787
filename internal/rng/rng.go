// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the partitioner.
//
// All randomized components of the partitioner (matching tie breaking, queue
// initialization order, initial-partitioning seeds, the coin flips of the
// distributed edge-coloring algorithm) draw from this package so that every
// experiment is exactly reproducible from a single seed. The generator is an
// xoshiro256**-style generator seeded through splitmix64, which also gives us
// cheap, well-distributed stream splitting: each simulated processing element
// (PE) derives its own independent stream from the master seed.
package rng

import "math/bits"

// RNG is a deterministic random number generator. The zero value is not
// usable; construct one with New, or seed a value in place with Seed.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances x and returns a well-mixed 64-bit value. It is the
// recommended seeding procedure for xoshiro-family generators.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed restarts r as the generator New(seed) returns, without allocating.
func (r *RNG) Seed(seed uint64) {
	x := seed
	r.s0 = splitmix64(&x)
	r.s1 = splitmix64(&x)
	r.s2 = splitmix64(&x)
	r.s3 = splitmix64(&x)
}

// Split derives an independent generator for stream id. Two generators
// obtained from the same parent with different ids produce statistically
// independent sequences; the derivation is deterministic.
func (r *RNG) Split(id uint64) *RNG {
	x := r.Uint64() ^ (id+1)*0x9e3779b97f4a7c15
	return New(splitmix64(&x))
}

// NewStream returns a generator for PE pe derived from a master seed without
// mutating any existing generator.
func NewStream(seed, pe uint64) *RNG {
	r := &RNG{}
	r.SeedStream(seed, pe)
	return r
}

// SeedStream restarts r as the generator NewStream(seed, pe) returns.
func (r *RNG) SeedStream(seed, pe uint64) {
	x := seed ^ (pe+1)*0xd1342543de82ef95
	r.Seed(splitmix64(&x))
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
//
//kappa:invariant a non-positive bound is a kernel bug, not an input error
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	v := r.Uint64()
	hi, lo := bits.Mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-n) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, uint64(n))
		}
	}
	return int(hi)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip. The distributed edge-coloring algorithm uses
// this as its active/passive coin.
func (r *RNG) Bool() bool {
	return r.Uint64()&1 == 1
}

// PermInto fills p with a random permutation of [0, len(p)), without
// allocating: the refinement scratch workspaces reuse p.
//
//kappa:hotpath
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	r.shuffle(p)
}

// shuffle permutes p in place (Fisher–Yates).
func (r *RNG) shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
