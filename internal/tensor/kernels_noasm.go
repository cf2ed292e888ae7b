//go:build !amd64 || purego

package tensor

// Without the assembly of kernels_amd64.s every kernel is its generic loop.

func axpy4(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	axpy4Generic(c, b0, b1, b2, b3, a0, a1, a2, a3)
}

func axpy3(c, b0, b1, b2 []float64, a0, a1, a2 float64) {
	axpy3Generic(c, b0, b1, b2, a0, a1, a2)
}

func axpy2(c, b0, b1 []float64, a0, a1 float64) { axpy2Generic(c, b0, b1, a0, a1) }

func axpy1(c, b []float64, a float64) { axpy1Generic(c, b, a) }

func addRow(dst, src []float64) { addRowGeneric(dst, src) }

func scale(x []float64, s float64) { scaleGeneric(x, s) }

// AdamUpdate applies one Adam step to one parameter: value, its gradient and
// its two moments, all of value's length (longer ones are read to that
// length, a shorter one panics before anything is written), which must not
// overlap. It returns sumSq plus the square of every updated value, added
// one at a time in index order.
func AdamUpdate(value, grad, m, v []float64, k *AdamCoef, sumSq float64) float64 {
	return adamUpdateGeneric(value, grad, m, v, k, sumSq)
}

// AddKept writes into dst, at every index of delta, base + delta where the
// top-k cut (thr, ties) keeps the delta and base where it does not: it keeps
// |delta| > thr, and |delta| == thr for the first ties such entries in index
// order. A NaN |delta| or a NaN thr keeps nothing. dst and base are read to
// delta's length (a shorter one panics before anything is written) and must
// not overlap delta.
func AddKept(dst, base, delta []float64, thr float64, ties int) {
	addKeptGeneric(dst, base, delta, thr, ties)
}

// DecaySumSquares adds decay·value to grad (decay == 0 adds nothing, not even
// a signed zero) and returns the sum of the squares of the result, four
// lanes at a time: a screen for a norm, not the norm's ordered sum. value is
// read to grad's length; a shorter one panics before anything is written.
func DecaySumSquares(grad, value []float64, decay float64) float64 {
	return decaySumSquaresGeneric(grad, value, decay)
}
