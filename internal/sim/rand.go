// Package sim provides deterministic randomness and statistical
// distributions for the Libspector simulation substrate.
//
// Every stochastic component in the repository draws from a *Rand seeded by
// the experiment configuration, so full pipeline runs are reproducible
// byte-for-byte. The generator is a SplitMix64 core wrapped in helpers for
// the distributions the synthetic world needs (log-normal transfer sizes,
// Zipf popularity, categorical mixes).
package sim

import (
	"fmt"
	"math"
)

// Rand is a deterministic pseudo-random number generator.
//
// It is intentionally not safe for concurrent use; concurrent components
// must Split the generator and own their child stream. The zero value is a
// valid generator seeded with zero, but callers should prefer NewRand so
// that stream derivation is explicit.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with the given seed.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed}
}

// Split derives an independent child generator from the parent stream and a
// label. Identical (parent seed, label) pairs always yield identical child
// streams, which lets concurrent workers own deterministic private streams.
func (r *Rand) Split(label string) *Rand {
	h := uint64(14695981039346656037) // FNV-64 offset basis.
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return NewRand(r.Uint64() ^ h)
}

// Uint64 returns the next 64 uniformly distributed bits (SplitMix64).
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand semantics; callers are expected to validate workload sizes.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("sim: Intn called with non-positive n %d", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n).
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic(fmt.Sprintf("sim: Int63n called with non-positive n %d", n))
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Box–Muller transform; one
// value per call keeps the stream position predictable for Split users).
func (r *Rand) NormFloat64() float64 {
	// Reject u1 == 0 so that Log stays finite.
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns exp(N(mu, sigma)). It models heavy-tailed transfer and
// content sizes; mu and sigma are the parameters of the underlying normal.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Pareto returns a Pareto(xm, alpha) variate, the distribution the paper
// uses for background-traffic timing (§IV-D, footnote 5).
func (r *Rand) Pareto(xm, alpha float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// PermPrefix returns Perm(n)[:k], drawing exactly what Perm(n) draws, in
// O(k) memory. Perm's step i draws j from [0, i], moves p[j] to p[i] and
// puts i at p[j]. A step i ≥ k writes below k only through p[j] = i, and
// what it moves to p[i] lies at or past k, where nothing below k reads
// it: the prefix needs no position past it. It panics unless 0 ≤ k ≤ n.
func (r *Rand) PermPrefix(n, k int) []int {
	if k < 0 || k > n {
		panic(fmt.Sprintf("sim: PermPrefix(%d, %d) outside 0 ≤ k ≤ n", n, k))
	}
	p := make([]int, k)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	for i := k; i < n; i++ {
		if j := r.Intn(i + 1); j < k {
			p[j] = i
		}
	}
	return p
}

// Shuffle pseudo-randomly reorders n elements using the provided swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}
