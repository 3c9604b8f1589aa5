// Package rng provides deterministic, splittable pseudo-random streams so
// that every experiment in the reproduction is bit-for-bit repeatable. Each
// subsystem derives its own independent sub-stream from a root seed and a
// string label, so adding randomness to one component never perturbs another.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// RNG wraps math/rand with convenience samplers used across the pipeline.
// Streams are hierarchical: Split derives an independent child stream keyed
// by a label, without consuming the parent stream.
type RNG struct {
	*rand.Rand
	seed int64
}

// New returns a deterministic root RNG seeded with seed.
func New(seed int64) *RNG {
	//pawsvet:allow globalrand -- this package is the sanctioned derivation root every other stream splits from
	return &RNG{Rand: rand.New(rand.NewSource(seed)), seed: seed}
}

// Seed returns the seed this stream was created with.
func (r *RNG) Seed() int64 { return r.seed }

// Split derives an independent sub-stream keyed by label. Streams with
// distinct labels are decorrelated and the parent stream is not consumed,
// so adding randomness to one component never perturbs another.
func (r *RNG) Split(label string) *RNG {
	return New(deriveSeed(r.seed, label))
}

func deriveSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	return int64(h.Sum64())
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Normal returns a sample from N(mu, sigma²).
func (r *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*r.NormFloat64()
}

// SampleWithoutReplacement draws k distinct indices from [0, n). If k ≥ n it
// returns a permutation of all n indices.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// Gamma samples a Gamma(shape, 1) variate by the Marsaglia–Tsang squeeze
// method, with the standard U^(1/shape) boost for shape < 1. Non-positive
// shapes return 0.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		// Gamma(k) = Gamma(k+1) · U^{1/k}; reject U = 0 so the power is
		// finite.
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta samples a Beta(a, b) variate as Gamma(a)/(Gamma(a)+Gamma(b)).
func (r *RNG) Beta(a, b float64) float64 {
	x := r.Gamma(a)
	y := r.Gamma(b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}
