//go:build !amd64 || purego

package tensor

// Without the assembly of kernels_amd64.s every kernel is its generic loop.

func gather(c, bd []float64, idx []int32, val []float64, add bool) {
	gatherGeneric(c, bd, idx, val, add)
}

func screen(idx []int32, val []float64, a []float64) int { return screenGeneric(idx, val, a, 0) }

func screenBytes(idx []int32, val []float64, b []uint8, _ int) int {
	return screenBytesGeneric(idx, val, b, 0)
}

func countBytes(b []uint8) int { return countBytesGeneric(b) }

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
