package tensor

import "math"

// The elementwise kernels as plain Go loops. This file carries no build tag:
// it is everything there is on !amd64 and under the purego tag, the run-time
// fallback on an amd64 CPU without AVX2, and the bit-level oracle the packed
// kernels in kernels_amd64.s are tested against — each of those evaluates,
// per lane, exactly the expression its loop here evaluates per element
// (DESIGN.md §15). None of them may be handed operands that overlap.

// gatherStrip is how many columns gatherGeneric sums at a time, in a stack
// buffer: the packed kernel's register strip.
const gatherStrip = 32

// gatherGeneric sets c[j], for every column j, to ((+0 + val[0]·B[idx[0], j])
// + val[1]·B[idx[1], j]) + … over the listed survivors in order — or to c[j]
// plus that sum when add — where B is bd read as a row-major matrix with
// len(c) columns. Each column has its one accumulator, so how the columns
// are grouped moves no bit.
func gatherGeneric(c, bd []float64, idx []int32, val []float64, add bool) {
	n := len(c)
	val = val[:len(idx)]
	var buf [gatherStrip]float64
	for j0 := 0; j0 < n; j0 += gatherStrip {
		acc := buf[:min(gatherStrip, n-j0)]
		clear(acc)
		for q, p := range idx {
			a, brow := val[q], bd[int(p)*n+j0:][:len(acc)]
			for j := range acc {
				acc[j] += a * brow[j]
			}
		}
		out := c[j0:][:len(acc)]
		if add {
			for j := range out {
				out[j] += acc[j]
			}
		} else {
			copy(out, acc)
		}
	}
}

// screenGeneric lists a's nonzero entries (a != 0: a NaN is listed, −0 is
// not) in ascending order, index base+i and value a[i], in idx and val, and
// returns their count.
func screenGeneric(idx []int32, val []float64, a []float64, base int) int {
	cnt := 0
	for i, v := range a {
		if v != 0 {
			idx[cnt], val[cnt] = int32(base+i), v
			cnt++
		}
	}
	return cnt
}

// screenBytesGeneric lists b's nonzero bytes in ascending order, index
// base+i and value float64(b[i]), in idx and val, and returns their count.
func screenBytesGeneric(idx []int32, val []float64, b []uint8, base int) int {
	cnt := 0
	for i, v := range b {
		if v != 0 {
			idx[cnt], val[cnt] = int32(base+i), float64(v)
			cnt++
		}
	}
	return cnt
}

// countBytesGeneric returns how many of b's bytes are nonzero.
func countBytesGeneric(b []uint8) int {
	cnt := 0
	for _, v := range b {
		if v != 0 {
			cnt++
		}
	}
	return cnt
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
// the fields by offset (TestAdamCoefOffsets pins them): keep their order.
type AdamCoef struct {
	Decay                float64 // λ: g = grad + λ·value
	Beta1, OneMinusBeta1 float64
	Beta2, OneMinusBeta2 float64
	StepSize             float64 // η / (1 − β1ᵗ)
	InvBiasCorr2         float64 // 1 / (1 − β2ᵗ)
	Eps                  float64
}

// adamUpdateGeneric is one Adam step over one parameter with the bias
// corrections folded into the step's two scalars: value − (s·m) / (√(v·c) + ε),
// one divide and one square root per element, no dependence between elements
// but the returned sumSq plus the squares of the updated values, added in
// index order.
func adamUpdateGeneric(value, grad, m, v []float64, k *AdamCoef, sumSq float64) float64 {
	grad, m, v = grad[:len(value)], m[:len(value)], v[:len(value)]
	for i := range value {
		g := grad[i] + k.Decay*value[i]
		m[i] = k.Beta1*m[i] + k.OneMinusBeta1*g
		v[i] = k.Beta2*v[i] + k.OneMinusBeta2*g*g
		x := value[i] - k.StepSize*m[i]/(math.Sqrt(v[i]*k.InvBiasCorr2)+k.Eps)
		value[i] = x
		sumSq += x * x
	}
	return sumSq
}

// addKeptGeneric writes base + delta into dst where the top-k cut keeps the
// delta and base where it does not: it keeps |delta| > thr, and |delta| ==
// thr while ties last, taken in index order. It returns the ties left.
func addKeptGeneric(dst, base, delta []float64, thr float64, ties int) int {
	dst, base = dst[:len(delta)], base[:len(delta)]
	for i, d := range delta {
		b := base[i]
		if m := math.Abs(d); m > thr {
			b += d
		} else if m == thr && ties > 0 {
			ties--
			b += d
		}
		dst[i] = b
	}
	return ties
}

// decaySumSquaresGeneric adds decay·value to grad (decay == 0 adds nothing,
// not even a signed zero) and returns the sum of the squares of the result
// in the packed kernel's order: lane j sums elements 4i+j of the whole
// vectors, the lanes join as (0+2) + (1+3), and the last 1–3 elements follow
// one at a time.
func decaySumSquaresGeneric(grad, value []float64, decay float64) float64 {
	value = value[:len(grad)]
	var lane [4]float64
	whole := len(grad) &^ 3
	for i := 0; i < whole; i += 4 {
		for j := range lane {
			g := grad[i+j]
			if decay != 0 {
				g += decay * value[i+j]
				grad[i+j] = g
			}
			lane[j] += g * g
		}
	}
	sum := (lane[0] + lane[2]) + (lane[1] + lane[3])
	for i := whole; i < len(grad); i++ {
		g := grad[i]
		if decay != 0 {
			g += decay * value[i]
			grad[i] = g
		}
		sum += g * g
	}
	return sum
}
