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
// + val[1]·B[idx[1], j]) + … over the listed survivors in order, where B is
// bd read as a row-major matrix with len(c) columns. Each column has its one
// accumulator, so how the columns are grouped moves no bit.
func gatherGeneric(c, bd []float64, idx []int32, val []float64) {
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
		copy(c[j0:][:len(acc)], acc)
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

// keepPositiveGeneric writes val[i] into dst[i] where ref[i] > 0 and +0
// elsewhere (a NaN ref is not positive).
func keepPositiveGeneric(dst, val, ref []float64) {
	val, ref = val[:len(dst)], ref[:len(dst)]
	for i := range dst {
		if ref[i] > 0 {
			dst[i] = val[i]
		} else {
			dst[i] = 0
		}
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
// one divide and one square root per element and no dependence between
// elements.
func adamUpdateGeneric(value, grad, m, v []float64, k *AdamCoef) {
	grad, m, v = grad[:len(value)], m[:len(value)], v[:len(value)]
	for i := range value {
		g := grad[i] + k.Decay*value[i]
		m[i] = k.Beta1*m[i] + k.OneMinusBeta1*g
		v[i] = k.Beta2*v[i] + k.OneMinusBeta2*g*g
		value[i] -= k.StepSize * m[i] / (math.Sqrt(v[i]*k.InvBiasCorr2) + k.Eps)
	}
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

// sumLanes is how many running sums the sums of squares keep: the packed
// kernels' four accumulators of four lanes each.
const sumLanes = 16

// sumSquaresGeneric returns the sum of the squares of x in the packed
// kernel's order: lane j sums elements 16i+j of the whole blocks of 16, the
// four accumulators (lanes 0–3, 4–7, 8–11, 12–15) join lane by lane as
// (acc0 + acc2) + (acc1 + acc3), those four lanes as (0+2) + (1+3), and the
// last 0–15 elements follow one at a time.
func sumSquaresGeneric(x []float64) float64 {
	var lane [sumLanes]float64
	whole := len(x) &^ (sumLanes - 1)
	for i := 0; i < whole; i += sumLanes {
		for j := range lane {
			lane[j] += x[i+j] * x[i+j]
		}
	}
	sum := joinLanes(&lane)
	for _, v := range x[whole:] {
		sum += v * v
	}
	return sum
}

// joinLanes adds sixteen running sums in the packed kernels' order.
func joinLanes(lane *[sumLanes]float64) float64 {
	var acc [4]float64
	for j := range acc {
		acc[j] = (lane[j] + lane[8+j]) + (lane[4+j] + lane[12+j])
	}
	return (acc[0] + acc[2]) + (acc[1] + acc[3])
}

// decaySumSquaresGeneric returns, in sumSquaresGeneric's order, the sum of
// the squares of grad + decay·value and the sum of the squares of value,
// and writes nothing. value is read to grad's length.
func decaySumSquaresGeneric(grad, value []float64, decay float64) (decayed, values float64) {
	value = value[:len(grad)]
	var gl, vl [sumLanes]float64
	whole := len(grad) &^ (sumLanes - 1)
	for i := 0; i < whole; i += sumLanes {
		for j := range gl {
			w := value[i+j]
			g := grad[i+j] + decay*w
			gl[j] += g * g
			vl[j] += w * w
		}
	}
	decayed, values = joinLanes(&gl), joinLanes(&vl)
	for i := whole; i < len(grad); i++ {
		w := value[i]
		g := grad[i] + decay*w
		decayed += g * g
		values += w * w
	}
	return decayed, values
}
