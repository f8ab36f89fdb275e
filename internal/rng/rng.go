// Package rng provides fast, deterministic pseudo-random number generation
// for samplers and synthetic data generators.
//
// The generator is xoshiro256** (Blackman & Vigna), chosen for speed and
// statistical quality. Streams are splittable: a parent stream can derive
// independent child streams for per-worker determinism, so results do not
// depend on worker scheduling.
package rng

import "math"

// Rand is a xoshiro256** pseudo-random generator. The zero value is invalid;
// use New or Split to obtain a seeded generator.
type Rand struct {
	s0, s1, s2, s3 uint64

	// spare holds the cached second Box–Muller variate for NormFloat64.
	spare      float64
	spareValid bool
}

// splitMix64 advances x and returns the next splitmix64 output. It is used
// only to seed xoshiro state from a single 64-bit seed, per the xoshiro
// authors' recommendation.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Distinct seeds give independent
// streams for all practical purposes.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed resets the generator to the state derived from seed.
func (r *Rand) Reseed(seed uint64) {
	x := seed
	r.s0 = splitMix64(&x)
	r.s1 = splitMix64(&x)
	r.s2 = splitMix64(&x)
	r.s3 = splitMix64(&x)
	// All-zero state is the single invalid state; seed==0 cannot produce it
	// through splitmix64, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s3 = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Split derives an independent child generator. The parent advances, so
// successive Split calls yield distinct children.
func (r *Rand) Split() *Rand {
	return New(r.Uint64() ^ 0xa0761d6478bd642f)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
//
// It uses Lemire's multiply-shift rejection method, which avoids the modulo
// bias of naive `Uint64() % n` and is branch-cheap in the common case.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n") //lint:allow panicdiscipline matches math/rand.Intn contract: non-positive n is a programmer error
	}
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul64(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	lo = a * b
	hi = a1*b1 + t>>32 + (t&mask32+a0*b1)>>32
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *Rand) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// NormFloat64 returns a standard normal variate using the ratio-of-uniforms
// free Box–Muller transform (polar method avoided to stay allocation-free).
func (r *Rand) NormFloat64() float64 {
	// Box–Muller; cache the second variate.
	if r.hasSpare() {
		return r.takeSpare()
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.setSpare(v * f)
	return u * f
}

func (r *Rand) hasSpare() bool     { return r.spareValid }
func (r *Rand) takeSpare() float64 { r.spareValid = false; return r.spare }
func (r *Rand) setSpare(v float64) { r.spare = v; r.spareValid = true }

// Perm fills out with a uniform random permutation of [0, len(out)).
func (r *Rand) Perm(out []int32) {
	for i := range out {
		out[i] = int32(i)
	}
	r.Shuffle(out)
}

// Shuffle performs an in-place Fisher–Yates shuffle of s.
func (r *Rand) Shuffle(s []int32) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}
