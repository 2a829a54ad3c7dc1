// Package rng provides a deterministic, splittable pseudo random number
// generator and the distributions required by the JABA-SD dynamic simulator:
// uniform, Gaussian, lognormal shadowing, exponential, Rayleigh fading
// envelopes, Pareto burst sizes and Poisson arrivals.
//
// The generator is xoshiro256** seeded via splitmix64. Each simulated entity
// (user, cell, traffic source) obtains its own independent substream through
// Split, so simulation results are reproducible for a given master seed
// regardless of goroutine scheduling.
//
// A Source value is NOT safe for concurrent use; split a child per goroutine.
package rng

import "math"

// Source is a deterministic xoshiro256** pseudo random number generator.
// The zero value is not usable; construct one with New or Split.
type Source struct {
	s [4]uint64
	// spare holds a cached second Gaussian variate from Box-Muller.
	spare    float64
	hasSpare bool
}

// splitmix64 advances the seed expander and returns the next 64-bit value.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded deterministically from seed.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the source in place to exactly the state New(seed) produces,
// discarding any cached Gaussian spare. It lets long-lived sources (e.g. a
// per-worker scheduler stream) be re-derived per task without allocating.
func (r *Source) Reseed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// Avoid the (astronomically unlikely) all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.spare = 0
	r.hasSpare = false
}

// Split derives an independent child stream from the parent. The child's
// sequence is decorrelated from the parent's by hashing a fresh draw together
// with the stream index, so Split(i) and Split(j) differ for i != j and
// repeated Split calls with the same index after the same parent history are
// reproducible.
func (r *Source) Split(index uint64) *Source {
	var child Source
	r.SplitInto(&child, index)
	return &child
}

// SplitInto is Split writing the child stream into dst instead of
// allocating it, for callers that keep their sources by value in a slab.
// It consumes the same parent draw, so it leaves the parent and produces
// the child exactly as Split does.
func (r *Source) SplitInto(dst *Source, index uint64) {
	dst.Reseed(r.Uint64() ^ (index * 0x9e3779b97f4a7c15) ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 bits from the stream.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform variate in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform variate in (0, 1), never exactly zero, which
// is convenient for logarithmic transforms.
func (r *Source) Float64Open() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return u
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniform variate in [lo, hi).
func (r *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bernoulli returns true with probability p.
func (r *Source) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Normal returns a Gaussian variate with the given mean and standard
// deviation, generated with the Box-Muller transform.
func (r *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.StdNormal()
}

// StdNormal returns a standard Gaussian variate.
func (r *Source) StdNormal() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	u1 := r.Float64Open()
	u2 := r.Float64()
	mag := math.Sqrt(-2 * math.Log(u1))
	z0 := mag * math.Cos(2*math.Pi*u2)
	z1 := mag * math.Sin(2*math.Pi*u2)
	r.spare = z1
	r.hasSpare = true
	return z0
}

// LogNormalDB returns a lognormal shadowing gain (linear scale) whose
// decibel value is Gaussian with the given mean and standard deviation in dB.
// This is the standard model for long-term shadowing.
func (r *Source) LogNormalDB(meanDB, sigmaDB float64) float64 {
	return math.Pow(10, r.Normal(meanDB, sigmaDB)/10)
}

// Exponential returns an exponential variate with the given mean (> 0).
func (r *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exponential with non-positive mean")
	}
	return -mean * math.Log(r.Float64Open())
}

// Rayleigh returns a Rayleigh-distributed envelope with scale sigma, i.e. the
// magnitude of a complex Gaussian with per-component standard deviation
// sigma. The mean power (second moment) is 2*sigma^2.
func (r *Source) Rayleigh(sigma float64) float64 {
	return sigma * math.Sqrt(-2*math.Log(r.Float64Open()))
}

// RayleighPower returns an exponentially distributed power gain with unit
// mean, i.e. the squared magnitude of a normalised Rayleigh fading channel.
func (r *Source) RayleighPower() float64 {
	return -math.Log(r.Float64Open())
}

// Pareto returns a Pareto variate with shape alpha (> 0) and minimum xm (> 0).
// Pareto burst sizes model the heavy-tailed WWW document sizes used by the
// packet data traffic model.
func (r *Source) Pareto(alpha, xm float64) float64 {
	if alpha <= 0 || xm <= 0 {
		panic("rng: Pareto requires positive alpha and xm")
	}
	return xm / math.Pow(r.Float64Open(), 1/alpha)
}

// BoundedPareto returns a Pareto variate truncated to [xm, cap] by rejection.
func (r *Source) BoundedPareto(alpha, xm, cap float64) float64 {
	if cap <= xm {
		return xm
	}
	for i := 0; i < 64; i++ {
		v := r.Pareto(alpha, xm)
		if v <= cap {
			return v
		}
	}
	return cap
}

// Poisson returns a Poisson variate with the given mean using Knuth's
// algorithm for small means and a normal approximation for large means.
func (r *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		v := r.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Shuffle permutes the first n indices in place via swap, using the
// Fisher-Yates algorithm.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
