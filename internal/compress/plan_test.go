package compress

import (
	"encoding/binary"
	"math"
	"testing"

	"lbchat/internal/simrand"
)

// quickselectCut is the cut as it stood before the magnitudes were
// bucketed: one quickselect over a copy of every non-NaN magnitude of v. It
// is the oracle of the bucketed cut, thr bits and ties alike.
func quickselectCut(v []float64, k int) cut {
	var mags []float64
	for _, x := range v {
		if m := math.Abs(x); m == m {
			mags = append(mags, m)
		}
	}
	nth := len(mags) - k
	if nth < 0 {
		return cut{thr: math.NaN()}
	}
	selectNth(mags, nth)
	thr := mags[nth]
	above := 0
	for _, m := range mags[nth+1:] {
		if m > thr {
			above++
		}
	}
	return cut{thr, k - above}
}

// keepLoopReconstruct is ReconstructInto as it stood before the packed
// blend: the whole-vector cut asked entry by entry, in index order.
func keepLoopReconstruct(base, delta []float64, k int) []float64 {
	dst := make([]float64, len(delta))
	switch {
	case k <= 0:
		copy(dst, base)
	case k >= len(delta):
		for i, d := range delta {
			dst[i] = base[i] + d
		}
	default:
		c := quickselectCut(delta, k)
		for i, d := range delta {
			b := base[i]
			if c.keeps(math.Abs(d)) {
				b += d
			}
			dst[i] = b
		}
	}
	return dst
}

// sameFloat compares bits, counting any two NaNs equal: which payload an
// operation on two NaNs keeps is the compiler's choice.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// cutVectors are the shapes a bucketed cut must survive: heavy ties, exact
// zeros of both signs, every magnitude in one bucket, subnormals beside
// 1e300, and ±Inf and NaN among ordinary values.
func cutVectors(rng *simrand.Rand) []namedVector {
	gen := func(n int, f func() float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = f()
		}
		return v
	}
	negZero := math.Copysign(0, -1)
	pick := func(vals ...float64) func() float64 {
		return func() float64 { return vals[rng.Intn(len(vals))] }
	}
	return []namedVector{
		{"ties", gen(300, func() float64 { return float64(rng.Intn(5)-2) * 0.125 })},
		{"zeros", gen(257, func() float64 {
			if rng.Bernoulli(0.6) {
				return pick(0, negZero)()
			}
			return rng.Normal(0, 1)
		})},
		{"one-bucket", gen(300, func() float64 { return -(1 + rng.Float64()/32) })},
		{"subnormal-huge", gen(300, func() float64 {
			if rng.Bernoulli(0.5) {
				return float64(1+rng.Intn(4)) * math.SmallestNonzeroFloat64
			}
			return 1e300 * (1 + rng.Float64())
		})},
		{"non-finite", gen(200, func() float64 {
			if rng.Bernoulli(0.3) {
				return pick(math.NaN(), math.Inf(1), math.Inf(-1), 0, math.MaxFloat64)()
			}
			return rng.Normal(0, 1)
		})},
		{"log-normal", gen(400, func() float64 { return math.Exp(rng.Normal(-6, 2)) * pick(1, -1)() })},
		{"all-nan", gen(9, func() float64 { return math.NaN() })},
	}
}

// TestBucketedCutMatchesQuickselect cuts one load at every k, in an order
// that revisits buckets a previous cut permuted, and asks the whole-vector
// quickselect each time.
func TestBucketedCutMatchesQuickselect(t *testing.T) {
	rng := simrand.New(31)
	for _, nv := range append(cutVectors(rng), oracleVectors(rng)...) {
		n := len(nv.v)
		if n > 1000 {
			continue
		}
		var sel selection
		sel.load(nv.v)
		for j := 1; j < n; j++ {
			k := j
			if j%2 == 0 {
				k = n - j // alternate ends
			}
			got, want := sel.cut(k), quickselectCut(nv.v, k)
			if !sameFloat(got.thr, want.thr) || got.ties != want.ties {
				t.Fatalf("%s (n=%d): cut(%d) = {%v %d}, quickselect {%v %d}", nv.name, n, k, got.thr, got.ties, want.thr, want.ties)
			}
		}
	}
}

// FuzzDeltaPlanCut fills a plan from arbitrary bytes (16 a coordinate: the
// model's value, then the base's) and cuts it at an arbitrary k: TopK is the
// sort oracle's and Reconstruct the scalar keep loop's, bit for bit.
func FuzzDeltaPlanCut(f *testing.F) {
	coords := func(vals ...float64) []byte {
		raw := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		return raw
	}
	f.Add([]byte{}, 1)
	f.Add(coords(1, 0, -2, 0, 3, 1), 1)
	f.Add(coords(0.5, 0, -0.5, 0, 0.5, 0, 0.25, 0, 0.5, 0, -0.5, 0, 0.5, 0, 1, 0, 0.5, 0), 4)
	f.Add(coords(math.NaN(), 0, math.Inf(1), 0, 5e-324, 0, 1e300, -1e300, 0, math.Copysign(0, -1)), 2)
	f.Fuzz(func(t *testing.T, raw []byte, k int) {
		var flat, base []float64
		for ; len(raw) >= 16; raw = raw[16:] {
			flat = append(flat, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			base = append(base, math.Float64frombits(binary.LittleEndian.Uint64(raw[8:])))
		}
		if n := len(flat); n > 0 {
			k %= n + 2 // every k from out of range below to above
		}
		var plan DeltaPlan
		plan.Fill(flat, base)
		delta := plan.Delta()
		if got, want := plan.TopK(k), sortOracleTopK(delta, k); !sameSparse(got, want) {
			t.Fatalf("TopK(%d) of %v kept %v, sort oracle %v", k, delta, got.Indices, want.Indices)
		}
		got, want := plan.Reconstruct(k), keepLoopReconstruct(base, delta, k)
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("Reconstruct(%d)[%d] = %v, keep loop %v (delta %v, base %v)", k, i, got[i], want[i], delta, base)
			}
		}
	})
}

// BenchmarkDeltaPlanCuts is one side of a chat's compression on a model of
// the policy's size (≈ 56 k parameters) whose delta magnitudes are
// log-normal: one Fill, the three sub-unit φ-fit levels of the default
// PsiSamples, then one send, each cut with Reconstruct. The kept counts are
// the engine's ψ^(1/3) calibration.
func BenchmarkDeltaPlanCuts(b *testing.B) {
	const n = 56_000
	rng := simrand.New(5)
	base := make([]float64, n)
	flat := make([]float64, n)
	for i := range base {
		base[i] = rng.Normal(0, 0.1)
		d := math.Exp(rng.Normal(-7, 1.5))
		if rng.Bernoulli(0.5) {
			d = -d
		}
		flat[i] = base[i] + d
	}
	var ks []int
	for _, psi := range []float64{0.05, 0.2, 0.5, 0.3} {
		ks = append(ks, int(math.Pow(psi, 1.0/3)*n))
	}
	var plan DeltaPlan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Fill(flat, base)
		for _, k := range ks {
			plan.Reconstruct(k)
		}
	}
}
