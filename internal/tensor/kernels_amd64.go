//go:build amd64 && !purego

package tensor

// useAVX2 selects the packed kernels of kernels_amd64.s over the loops of
// kernels_generic.go. The two are bit-identical, so which one runs is a
// property of the CPU, not an option: set once here, never written again.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// registers across context switches.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// The assembly routines read n elements through every pointer and check
// nothing: only the wrappers below call them, after reslicing every operand
// to the n they pass — a short operand panics there, in Go.

//go:noescape
func axpy4AVX2(c, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)

//go:noescape
func axpy3AVX2(c, b0, b1, b2 *float64, n int, a0, a1, a2 float64)

//go:noescape
func axpy2AVX2(c, b0, b1 *float64, n int, a0, a1 float64)

//go:noescape
func axpy1AVX2(c, b *float64, n int, a float64)

//go:noescape
func addRowAVX2(dst, src *float64, n int)

//go:noescape
func scaleAVX2(x *float64, n int, s float64)

//go:noescape
func adamUpdateAVX2(value, grad, m, v *float64, n int, k *AdamCoef, sumSq float64) float64

// addKeptAVX2 runs whole vectors only (n is a multiple of 4) and returns how
// many elements it wrote: all n, or fewer when it met a vector holding a
// tie while ties > 0.
//
//go:noescape
func addKeptAVX2(dst, base, delta *float64, n int, thr float64, ties int) int

//go:noescape
func decaySumSquaresAVX2(grad, value *float64, n int, decay float64) float64

func axpy4(c, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	if !useAVX2 || len(c) == 0 {
		axpy4Generic(c, b0, b1, b2, b3, a0, a1, a2, a3)
		return
	}
	b0, b1, b2, b3 = b0[:len(c)], b1[:len(c)], b2[:len(c)], b3[:len(c)]
	axpy4AVX2(&c[0], &b0[0], &b1[0], &b2[0], &b3[0], len(c), a0, a1, a2, a3)
}

func axpy3(c, b0, b1, b2 []float64, a0, a1, a2 float64) {
	if !useAVX2 || len(c) == 0 {
		axpy3Generic(c, b0, b1, b2, a0, a1, a2)
		return
	}
	b0, b1, b2 = b0[:len(c)], b1[:len(c)], b2[:len(c)]
	axpy3AVX2(&c[0], &b0[0], &b1[0], &b2[0], len(c), a0, a1, a2)
}

func axpy2(c, b0, b1 []float64, a0, a1 float64) {
	if !useAVX2 || len(c) == 0 {
		axpy2Generic(c, b0, b1, a0, a1)
		return
	}
	b0, b1 = b0[:len(c)], b1[:len(c)]
	axpy2AVX2(&c[0], &b0[0], &b1[0], len(c), a0, a1)
}

func axpy1(c, b []float64, a float64) {
	if !useAVX2 || len(c) == 0 {
		axpy1Generic(c, b, a)
		return
	}
	b = b[:len(c)]
	axpy1AVX2(&c[0], &b[0], len(c), a)
}

func addRow(dst, src []float64) {
	if !useAVX2 || len(src) == 0 {
		addRowGeneric(dst, src)
		return
	}
	dst = dst[:len(src)]
	addRowAVX2(&dst[0], &src[0], len(src))
}

func scale(x []float64, s float64) {
	if !useAVX2 || len(x) == 0 {
		scaleGeneric(x, s)
		return
	}
	scaleAVX2(&x[0], len(x), s)
}

// AdamUpdate applies one Adam step to one parameter: value, its gradient and
// its two moments, all of value's length (longer ones are read to that
// length, a shorter one panics before anything is written), which must not
// overlap. It returns sumSq plus the square of every updated value, added
// one at a time in index order.
func AdamUpdate(value, grad, m, v []float64, k *AdamCoef, sumSq float64) float64 {
	if !useAVX2 || len(value) == 0 {
		return adamUpdateGeneric(value, grad, m, v, k, sumSq)
	}
	grad, m, v = grad[:len(value)], m[:len(value)], v[:len(value)]
	return adamUpdateAVX2(&value[0], &grad[0], &m[0], &v[0], len(value), k, sumSq)
}

// AddKept writes into dst, at every index of delta, base + delta where the
// top-k cut (thr, ties) keeps the delta and base where it does not: it keeps
// |delta| > thr, and |delta| == thr for the first ties such entries in index
// order. A NaN |delta| or a NaN thr keeps nothing. dst and base are read to
// delta's length (a shorter one panics before anything is written) and must
// not overlap delta.
func AddKept(dst, base, delta []float64, thr float64, ties int) {
	n := len(delta)
	if !useAVX2 || n == 0 {
		addKeptGeneric(dst, base, delta, thr, ties)
		return
	}
	dst, base = dst[:n], base[:n]
	for i := 0; i < n; {
		i += addKeptAVX2(&dst[i], &base[i], &delta[i], (n-i)&^3, thr, ties)
		// The vector holding a tie, or the last 1–3 elements.
		end := min(i+4, n)
		ties = addKeptGeneric(dst[i:end], base[i:end], delta[i:end], thr, ties)
		i = end
	}
}

// DecaySumSquares adds decay·value to grad (decay == 0 adds nothing, not even
// a signed zero) and returns the sum of the squares of the result, four
// lanes at a time: a screen for a norm, not the norm's ordered sum. value is
// read to grad's length; a shorter one panics before anything is written.
func DecaySumSquares(grad, value []float64, decay float64) float64 {
	if !useAVX2 || len(grad) == 0 || decay == 0 {
		return decaySumSquaresGeneric(grad, value, decay)
	}
	value = value[:len(grad)]
	return decaySumSquaresAVX2(&grad[0], &value[0], len(grad), decay)
}
