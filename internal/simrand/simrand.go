package simrand

import (
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
)

// Rand is a deterministic random stream. It wraps math/rand with a
// fixed source and adds derivation and weighted-sampling helpers used
// throughout the simulator. A Rand is NOT safe for concurrent use; derive a
// separate stream per goroutine instead.
type Rand struct {
	seed uint64
	rng  *rand.Rand
}

// New returns a stream seeded with seed.
func New(seed uint64) *Rand {
	return &Rand{
		seed: seed,
		rng:  rand.New(rand.NewSource(int64(seed))), //nolint:gosec // simulation, not crypto
	}
}

// Seed returns the seed this stream was created with.
func (r *Rand) Seed() uint64 { return r.seed }

// Derive returns a new independent stream identified by name. Derivation is
// stable: the same (seed, name) pair always yields the same stream,
// regardless of how many other streams have been derived or how much the
// parent has been consumed.
func (r *Rand) Derive(name string) *Rand {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(r.seed >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte(name))
	return New(h.Sum64())
}

// DeriveIndexed returns a derived stream for the name-index pair, e.g. one
// stream per vehicle.
func (r *Rand) DeriveIndexed(name string, index int) *Rand {
	return r.Derive(name + "#" + strconv.Itoa(index))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 { return r.rng.Float64() }

// Intn returns a uniform int in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *Rand) Intn(n int) int { return r.rng.Intn(n) }

// NormFloat64 returns a standard normal sample.
func (r *Rand) NormFloat64() float64 { return r.rng.NormFloat64() }

// Uniform returns a uniform sample in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.rng.Float64()
}

// Normal returns a normal sample with the given mean and standard deviation.
func (r *Rand) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.rng.NormFloat64()
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.rng.Float64() < p
}

// Exponential returns an exponential sample with the given rate. It returns
// +Inf when rate <= 0.
func (r *Rand) Exponential(rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return r.rng.ExpFloat64() / rate
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.rng.Perm(n) }

// WeightedIndex samples an index proportionally to weights. Non-positive
// weights are treated as zero. It returns -1 when all weights are
// non-positive or the slice is empty.
func (r *Rand) WeightedIndex(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return -1
	}
	target := r.rng.Float64() * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if target < acc {
			return i
		}
	}
	// Floating-point round-off can leave target marginally above acc; return
	// the last positive-weight index in that case.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return -1
}

// WeightedSampleWithoutReplacement samples k distinct indices from weights
// using the Efraimidis–Spirakis exponential-keys method. If fewer than k
// indices have positive weight, all positive-weight indices are returned.
// The returned order is by descending key (i.e. effectively random).
func (r *Rand) WeightedSampleWithoutReplacement(weights []float64, k int) []int {
	if k <= 0 {
		return nil
	}
	type keyed struct {
		idx int
		key float64
	}
	items := make([]keyed, 0, len(weights))
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		// key = u^(1/w); larger keys win. Use log for numeric stability.
		u := r.rng.Float64()
		for u == 0 {
			u = r.rng.Float64()
		}
		items = append(items, keyed{idx: i, key: math.Log(u) / w})
	}
	if len(items) <= k {
		out := make([]int, len(items))
		for i, it := range items {
			out[i] = it.idx
		}
		return out
	}
	// Partial selection of the k largest keys.
	for sel := 0; sel < k; sel++ {
		best := sel
		for j := sel + 1; j < len(items); j++ {
			if items[j].key > items[best].key {
				best = j
			}
		}
		items[sel], items[best] = items[best], items[sel]
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = items[i].idx
	}
	return out
}
