package tensor

import (
	"math"
	"testing"
	"unsafe"

	"lbchat/internal/simrand"
)

// adamSteps are the step counts the realistic Adam arms build coefficients
// at: the first steps, where the bias corrections are largest, a mid-run
// step and one where they are within rounding of 1.
var adamSteps = []int{1, 2, 10, 356, 10000}

// textbookAdamCoef holds the scalars of the textbook Adam update, with the
// bias corrections and the learning rate kept apart.
type textbookAdamCoef struct {
	Decay                float64
	Beta1, OneMinusBeta1 float64
	Beta2, OneMinusBeta2 float64
	BiasCorr1, BiasCorr2 float64 // 1 − β1ᵗ, 1 − β2ᵗ
	LR, Eps              float64
}

// adamCoefsAt builds the coefficients of step t under the default moments
// (β1 = 0.9, β2 = 0.999, ε = 1e-8) twice: as nn.Adam.Step builds them for
// AdamUpdate, and for adamUpdateTextbook from the same bias corrections.
func adamCoefsAt(t int, lr, decay float64) (AdamCoef, textbookAdamCoef) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	bc1 := 1 - math.Pow(beta1, float64(t))
	bc2 := 1 - math.Pow(beta2, float64(t))
	return AdamCoef{Decay: decay, Beta1: beta1, OneMinusBeta1: 1 - beta1, Beta2: beta2, OneMinusBeta2: 1 - beta2,
			StepSize: lr / bc1, InvBiasCorr2: 1 / bc2, Eps: eps},
		textbookAdamCoef{Decay: decay, Beta1: beta1, OneMinusBeta1: 1 - beta1, Beta2: beta2, OneMinusBeta2: 1 - beta2,
			BiasCorr1: bc1, BiasCorr2: bc2, LR: lr, Eps: eps}
}

// adamUpdateTextbook is Adam as Kingma & Ba write it: three divides and a
// square root per element, value − (η·(m/bc1)) / (√(v/bc2) + ε). It is the
// oracle that keeps AdamUpdate computing Adam.
func adamUpdateTextbook(value, grad, m, v []float64, k *textbookAdamCoef) {
	for i := range value {
		g := grad[i] + k.Decay*value[i]
		m[i] = k.Beta1*m[i] + k.OneMinusBeta1*g
		v[i] = k.Beta2*v[i] + k.OneMinusBeta2*g*g
		mHat := m[i] / k.BiasCorr1
		vHat := v[i] / k.BiasCorr2
		value[i] -= k.LR * mHat / (math.Sqrt(vHat) + k.Eps)
	}
}

// TestAdamCoefOffsets pins the offsets kernels_amd64.s broadcasts AdamCoef's
// fields from, and its size: a field moved, added or dropped fails here
// rather than as wrong float bits.
func TestAdamCoefOffsets(t *testing.T) {
	var k AdamCoef
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"Decay", unsafe.Offsetof(k.Decay), 0},
		{"Beta1", unsafe.Offsetof(k.Beta1), 8},
		{"OneMinusBeta1", unsafe.Offsetof(k.OneMinusBeta1), 16},
		{"Beta2", unsafe.Offsetof(k.Beta2), 24},
		{"OneMinusBeta2", unsafe.Offsetof(k.OneMinusBeta2), 32},
		{"StepSize", unsafe.Offsetof(k.StepSize), 40},
		{"InvBiasCorr2", unsafe.Offsetof(k.InvBiasCorr2), 48},
		{"Eps", unsafe.Offsetof(k.Eps), 56},
	} {
		if f.got != f.want {
			t.Errorf("AdamCoef.%s at offset %d, kernels_amd64.s reads it at %d", f.name, f.got, f.want)
		}
	}
	if got := unsafe.Sizeof(k); got != 64 {
		t.Errorf("AdamCoef is %d bytes, kernels_amd64.s reads 8 fields (64 bytes)", got)
	}
}

// TestAdamUpdateCloseToTextbook: over realistic coefficients — t from 1 to
// 10 000, the default β's, η in [1e-4, 1e-2], gradients of magnitude 1e-8 to
// 1e2 and the moments such gradients leave after t − 1 steps — AdamUpdate's
// step is within adamTextbookUlps ulps of the textbook one, and both leave
// the same moment bits.
//
// The bound. Both forms share g, m, v and the bias corrections b1, b2 bit for
// bit, so they approximate the same exact step q = (η·m/b1) / (√(v/b2) + ε).
// With u = 2⁻⁵³ and every intermediate normal, each rounding is a factor
// (1 + δ), |δ| ≤ u; a square root halves the relative error of its operand;
// adding ε ≥ 0 to a positive term does not grow it. To first order in u:
//   - textbook: numerator fl(η·fl(m/b1)) 2u; denominator fl(√fl(v/b2)) ½u + u,
//     then + ε u, so 2.5u; the divide u: 5.5u in all;
//   - AdamUpdate: s = fl(η/b1) and fl(s·m) 2u; c = fl(1/b2) and fl(v·c) under
//     the root ½(2u), the root u, + ε u, so 3u; the divide u: 6u in all.
//
// The two steps are then within 11.5u·|q| of each other, and u·|y| < ulp(y)
// for any normal y, so within 11.5 ulps of the textbook step (plus O(u²)):
// 12 ulps is the bound. A change that stops computing Adam — a bias
// correction dropped or applied twice, ε moved inside the root — is off by
// far more than that. Values start at zero, so the kernel leaves −step in
// them exactly.
func TestAdamUpdateCloseToTextbook(t *testing.T) {
	const (
		adamTextbookUlps = 12
		draws            = 2000
		n                = 7 // one whole vector and a three-element tail
	)
	rng := simrand.New(31)
	magnitude := func(lo, hi float64) float64 { return math.Pow(10, rng.Uniform(lo, hi)) }
	signed := func(x float64) float64 {
		if rng.Bernoulli(0.5) {
			return -x
		}
		return x
	}
	ulp := func(x float64) float64 { x = math.Abs(x); return math.Nextafter(x, math.Inf(1)) - x }
	worst := 0.0
	for d := 0; d < draws; d++ {
		step := adamSteps[d%len(adamSteps)]
		if d >= len(adamSteps) {
			step = int(math.Round(magnitude(0, 4)))
		}
		k, tk := adamCoefsAt(step, magnitude(-4, -2), 0)
		value, grad, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range grad {
			grad[i] = signed(magnitude(-8, 2))
			g := magnitude(-8, 2)
			m[i] = (1 - math.Pow(k.Beta1, float64(step-1))) * signed(g)
			v[i] = (1 - math.Pow(k.Beta2, float64(step-1))) * g * g
		}
		tValue, tm, tv := append([]float64(nil), value...), append([]float64(nil), m...), append([]float64(nil), v...)
		AdamUpdate(value, grad, m, v, &k)
		adamUpdateTextbook(tValue, grad, tm, tv, &tk)
		sameBits(t, "first moment", m, tm)
		sameBits(t, "second moment", v, tv)
		for i := range value {
			off := math.Abs(value[i]-tValue[i]) / ulp(tValue[i])
			if !(off <= adamTextbookUlps) {
				t.Fatalf("t=%d η=%g grad=%g: step %v, textbook %v: %.1f ulps apart, bound %d",
					step, tk.LR, grad[i], -value[i], -tValue[i], off, adamTextbookUlps)
			}
			worst = math.Max(worst, off)
		}
	}
	t.Logf("largest distance from the textbook step: %.1f ulps (bound %d)", worst, adamTextbookUlps)
}
