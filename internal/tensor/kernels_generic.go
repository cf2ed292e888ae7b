package tensor

import "math"

// The elementwise kernels as plain Go loops. This file carries no build tag:
// it is everything there is on !amd64 and under the purego tag, the run-time
// fallback on an amd64 CPU without AVX2, and the bit-level oracle the packed
// kernels in kernels_amd64.s are tested against — each of those evaluates,
// per lane, exactly the expression its loop here evaluates per element
// (DESIGN.md §15). None of them may be handed operands that overlap.

// axpy4Generic applies four rank-one terms to c in one pass, in argument
// order: one load and one store of each c[j] per four multiply-adds, the
// same sum four axpy1 calls would leave.
func axpy4Generic(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	b0, b1, b2, b3 = b0[:len(c)], b1[:len(c)], b2[:len(c)], b3[:len(c)]
	for j := range c {
		c[j] = (((c[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]) + a3*b3[j]
	}
}

// axpy3Generic, axpy2Generic and axpy1Generic are axpy4Generic for the last
// one to three terms of a row.
func axpy3Generic(c, b0, b1, b2 []float64, a0, a1, a2 float64) {
	b0, b1, b2 = b0[:len(c)], b1[:len(c)], b2[:len(c)]
	for j := range c {
		c[j] = ((c[j] + a0*b0[j]) + a1*b1[j]) + a2*b2[j]
	}
}

func axpy2Generic(c, b0, b1 []float64, a0, a1 float64) {
	b0, b1 = b0[:len(c)], b1[:len(c)]
	for j := range c {
		c[j] = (c[j] + a0*b0[j]) + a1*b1[j]
	}
}

func axpy1Generic(c, b []float64, a float64) {
	b = b[:len(c)]
	for j := range c {
		c[j] += a * b[j]
	}
}

// addRowGeneric adds src to dst elementwise (−0 + +0 = +0).
func addRowGeneric(dst, src []float64) {
	dst = dst[:len(src)]
	for j, v := range src {
		dst[j] += v
	}
}

// scaleGeneric multiplies every element of x by s.
func scaleGeneric(x []float64, s float64) {
	for i := range x {
		x[i] *= s
	}
}

// AdamCoef holds the scalars of one AdamUpdate call. kernels_amd64.s reads
// the fields by offset: keep their order.
type AdamCoef struct {
	Decay                float64 // λ: g = grad + λ·value
	Beta1, OneMinusBeta1 float64
	Beta2, OneMinusBeta2 float64
	BiasCorr1, BiasCorr2 float64 // 1 − β1ᵗ, 1 − β2ᵗ
	LR, Eps              float64
}

// adamUpdateGeneric is one Adam step over one parameter: three divides and a
// square root per element, no dependence between elements.
func adamUpdateGeneric(value, grad, m, v []float64, k *AdamCoef) {
	grad, m, v = grad[:len(value)], m[:len(value)], v[:len(value)]
	for i := range value {
		g := grad[i] + k.Decay*value[i]
		m[i] = k.Beta1*m[i] + k.OneMinusBeta1*g
		v[i] = k.Beta2*v[i] + k.OneMinusBeta2*g*g
		mHat := m[i] / k.BiasCorr1
		vHat := v[i] / k.BiasCorr2
		value[i] -= k.LR * mHat / (math.Sqrt(vHat) + k.Eps)
	}
}
