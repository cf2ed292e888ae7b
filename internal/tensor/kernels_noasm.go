//go:build !amd64 || purego

package tensor

// Without the assembly of kernels_amd64.s every kernel is its generic loop.

func gather(c, bd []float64, idx []int32, val []float64) { gatherGeneric(c, bd, idx, val) }

func screen(idx []int32, val []float64, a []float64) int { return screenGeneric(idx, val, a, 0) }

func screenBytes(idx []int32, val []float64, b []uint8, _ int) int {
	return screenBytesGeneric(idx, val, b, 0)
}

func countBytes(b []uint8) int { return countBytesGeneric(b) }

func addRow(dst, src []float64) { addRowGeneric(dst, src) }

// KeepPositive writes val[i] into dst[i] where ref[i] > 0 and +0 elsewhere
// (a NaN ref is not positive): a ReLU, and its backward pass. val and ref
// are read to dst's length (a shorter one panics before anything is
// written); dst overlaps neither.
func KeepPositive(dst, val, ref []float64) { keepPositiveGeneric(dst, val, ref) }

// AdamUpdate applies one Adam step to one parameter: value, its gradient and
// its two moments, all of value's length (longer ones are read to that
// length, a shorter one panics before anything is written), which must not
// overlap.
func AdamUpdate(value, grad, m, v []float64, k *AdamCoef) { adamUpdateGeneric(value, grad, m, v, k) }

// AddKept writes into dst, at every index of delta, base + delta where the
// top-k cut (thr, ties) keeps the delta and base where it does not: it keeps
// |delta| > thr, and |delta| == thr for the first ties such entries in index
// order. A NaN |delta| or a NaN thr keeps nothing. dst and base are read to
// delta's length (a shorter one panics before anything is written) and must
// not overlap delta.
func AddKept(dst, base, delta []float64, thr float64, ties int) {
	addKeptGeneric(dst, base, delta, thr, ties)
}

// SumSquares returns the sum of the squares of x, added in sixteen lanes
// (sumSquaresGeneric gives the order): a norm's square, not its ordered sum.
func SumSquares(x []float64) float64 { return sumSquaresGeneric(x) }

// DecaySumSquares returns the sum of the squares of grad + decay·value and
// the sum of the squares of value, each added in SumSquares' lanes and
// order, from one read of both; it writes nothing. value is read to grad's
// length; a shorter one panics before anything is read.
func DecaySumSquares(grad, value []float64, decay float64) (decayed, values float64) {
	return decaySumSquaresGeneric(grad, value, decay)
}
