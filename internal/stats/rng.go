// Package stats provides deterministic random number generation and the
// Gini inequality index used throughout the crowdfair experiments.
//
// All experiments in this repository must be reproducible bit-for-bit, so
// the package deliberately avoids math/rand's global source and instead
// exposes RNG, a splitmix64-based generator that is seeded explicitly and
// is safe to copy (value semantics are never relied upon; use New).
package stats

// RNG is a deterministic pseudo-random number generator based on
// splitmix64 (Steele, Lea, Flood 2014). It is small, fast, passes BigCrush
// for the intended workload sizes, and — unlike math/rand's default source —
// yields identical streams on every platform for a given seed.
//
// RNG is not safe for concurrent use; give each goroutine its own instance
// via Split.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds yield
// independent-looking streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives a new, independently-seeded generator from r, advancing r.
// Use it to hand a private stream to a sub-component without coupling its
// consumption to the parent's.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n) using
// Fisher–Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
