package compress

import (
	"math"
	"sort"
	"testing"

	"lbchat/internal/simrand"
)

// sortOracleTopK is TopK as it stood before selection replaced the sort:
// threshold from a fully sorted copy of the magnitudes, strictly-above pass,
// tie pass, pairs re-sorted by index. Kept verbatim as the reference.
func sortOracleTopK(flat []float64, k int) *Sparse {
	n := len(flat)
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	s := &Sparse{Len: n}
	if k == 0 {
		return s
	}
	if k == n {
		s.Indices = make([]int, n)
		s.Values = make([]float64, n)
		for i, v := range flat {
			s.Indices[i] = i
			s.Values[i] = v
		}
		return s
	}
	mags := make([]float64, n)
	for i, v := range flat {
		mags[i] = math.Abs(v)
	}
	sorted := append([]float64(nil), mags...)
	sort.Float64s(sorted)
	threshold := sorted[n-k]
	// First pass: everything strictly above threshold.
	s.Indices = make([]int, 0, k)
	s.Values = make([]float64, 0, k)
	for i, v := range flat {
		if mags[i] > threshold {
			s.Indices = append(s.Indices, i)
			s.Values = append(s.Values, v)
		}
	}
	// Second pass: fill remaining slots with ties at the threshold.
	for i, v := range flat {
		if len(s.Indices) >= k {
			break
		}
		if mags[i] == threshold {
			s.Indices = append(s.Indices, i)
			s.Values = append(s.Values, v)
		}
	}
	sortPairs(s)
	return s
}

func sortPairs(s *Sparse) {
	type pair struct {
		i int
		v float64
	}
	ps := make([]pair, len(s.Indices))
	for j := range s.Indices {
		ps[j] = pair{s.Indices[j], s.Values[j]}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].i < ps[b].i })
	for j, p := range ps {
		s.Indices[j] = p.i
		s.Values[j] = p.v
	}
}

// sameSparse compares two Sparse entry by entry, values by bit pattern so
// ±0 and NaN payloads count.
func sameSparse(a, b *Sparse) bool {
	if a.Len != b.Len || len(a.Indices) != len(b.Indices) || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] || math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

type namedVector struct {
	name string
	v    []float64
}

// oracleVectors are the shapes selection must survive: continuous noise,
// heavy ties, all-equal, signed zeros, non-finite entries, and the ordered
// patterns that defeat a naive quickselect pivot.
func oracleVectors(rng *simrand.Rand) []namedVector {
	gen := func(n int, f func(i int) float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	negZero := math.Copysign(0, -1)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero}
	return []namedVector{
		{"empty", nil},
		{"one", []float64{-3}},
		{"noise", gen(1+rng.Intn(400), func(int) float64 { return rng.Normal(0, 1) })},
		{"quantised", gen(1+rng.Intn(400), func(int) float64 { return float64(rng.Intn(7)-3) * 0.25 })},
		{"all-equal", gen(64, func(int) float64 { return -1.5 })},
		{"zeros", gen(65, func(i int) float64 { return []float64{0, negZero}[i%2] })},
		{"sparse", gen(200, func(int) float64 {
			if rng.Bernoulli(0.8) {
				return 0
			}
			return rng.Normal(0, 1e-3)
		})},
		{"non-finite", gen(120, func(int) float64 {
			if rng.Bernoulli(0.3) {
				return special[rng.Intn(len(special))]
			}
			return float64(rng.Intn(5) - 2)
		})},
		{"all-nan", gen(9, func(int) float64 { return math.NaN() })},
		{"ascending", gen(20000, func(i int) float64 { return float64(i) })},
		{"descending", gen(20000, func(i int) float64 { return float64(-i) })},
		{"organ-pipe", gen(20001, func(i int) float64 { return -math.Abs(float64(i - 10000)) })},
		{"sawtooth", gen(20000, func(i int) float64 { return float64(i % 17) })},
	}
}

func TestTopKMatchesSortOracle(t *testing.T) {
	rng := simrand.New(16)
	for round := 0; round < 20; round++ {
		for _, nv := range oracleVectors(rng) {
			name, v := nv.name, nv.v
			n := len(v)
			ks := []int{-1, 0, 1, n - 1, n, n + 1}
			if n > 2 {
				ks = append(ks, 1+rng.Intn(n-1), 1+rng.Intn(n-1), n/2)
			}
			if n > 1000 && round > 0 {
				continue // the ordered patterns are deterministic: once is enough
			}
			for _, k := range ks {
				if got, want := TopK(v, k), sortOracleTopK(v, k); !sameSparse(got, want) {
					t.Fatalf("%s (n=%d, round %d): TopK(k=%d) kept %d entries %v, oracle %d entries %v",
						name, n, round, k, got.K(), head(got.Indices), want.K(), head(want.Indices))
				}
			}
		}
	}
}

func head(idx []int) []int {
	if len(idx) > 12 {
		return idx[:12]
	}
	return idx
}

// TestDeltaPlanMatchesTopK pins the plan against the one-shot path: cutting
// a filled plan at successive k, in any order, and after a refill with
// another model, is what TopK and its dense reconstruction give.
func TestDeltaPlanMatchesTopK(t *testing.T) {
	rng := simrand.New(17)
	var plan DeltaPlan
	for _, nv := range oracleVectors(rng) {
		name, flat := nv.name, nv.v
		n := len(flat)
		if n > 1000 {
			continue
		}
		base := make([]float64, n)
		delta := make([]float64, n)
		for i := range base {
			base[i] = float64(rng.Intn(3) - 1) // exact, and −0-free sums are not assumed
			delta[i] = flat[i] - base[i]
		}
		plan.Fill(flat, base)
		for _, k := range []int{n / 2, 0, n, 1, n - 1, n / 3, -2, n + 2, n / 2} {
			want := TopK(delta, k)
			if got := plan.TopK(k); !sameSparse(got, want) {
				t.Fatalf("%s: plan.TopK(%d) differs from TopK of the delta", name, k)
			}
			wantDense := append([]float64(nil), base...)
			for i, idx := range want.Indices {
				wantDense[idx] += want.Values[i]
			}
			fresh := plan.ReconstructInto(make([]float64, n), k)
			reused := plan.Reconstruct(k)
			for i := range wantDense {
				w := math.Float64bits(wantDense[i])
				if math.Float64bits(fresh[i]) != w || math.Float64bits(reused[i]) != w {
					t.Fatalf("%s: reconstruction at k=%d differs at %d: fresh %v reused %v want %v",
						name, k, i, fresh[i], reused[i], wantDense[i])
				}
			}
		}
	}
}
