//go:build amd64 && !purego

package tensor

import "unsafe"

// useAVX2 selects the packed kernels of kernels_amd64.s over the loops of
// kernels_generic.go. The two are bit-identical, so which one runs is a
// property of the CPU, not an option: set once here, never written again.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU implements AVX2 and POPCNT (the screens
// count their survivors with it) and the OS saves the YMM registers across
// context switches.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
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
// to the n they pass — a short operand panics there, in Go. The gather also
// reads the B rows its list names; those indices are checked where the lists
// are made (MatMulRowsInto, the column scatter) or cannot be out of range
// (the screens).

//go:noescape
func gatherAVX2(c *float64, n int, b *float64, idx *int32, val *float64, cnt int, add bool)

//go:noescape
func screenAVX2(idx *int32, val *float64, a *float64, n int, tab *[16][16]int32) int

//go:noescape
func screenBytesAVX2(idx *int32, val *float64, b *uint8, n int, tab *[16][16]int32) int

//go:noescape
func countBytesAVX2(b *uint8, n int) int

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

// screenTable has one entry per 4-bit mask of listed lanes: the VPERMD
// control that packs those lanes' doubles (dword pairs) to the front, then
// the VPERMILPS control that packs their int32 indices, then padding to 64
// bytes. Unlisted lanes take lane 0; the stores that carry them are
// overwritten or lie past the count.
var screenTable = func() (t [16][16]int32) {
	for m := range t {
		k := 0
		for l := int32(0); l < 4; l++ {
			if m&(1<<l) != 0 {
				t[m][2*k], t[m][2*k+1], t[m][8+k] = 2*l, 2*l+1, l
				k++
			}
		}
	}
	return t
}()

// gather sets c[j], for every column j, to Σ val[q]·B[idx[q], j] over q
// ascending from +0 — or adds that sum to c[j] when add — where B is bd
// read as a row-major matrix with len(c) columns. The indices are trusted:
// every caller lists only rows of B (the exported kernels check them).
func gather(c, bd []float64, idx []int32, val []float64, add bool) {
	if !useAVX2 || len(c) == 0 {
		gatherGeneric(c, bd, idx, val, add)
		return
	}
	val = val[:len(idx)]
	gatherAVX2(&c[0], len(c), unsafe.SliceData(bd), unsafe.SliceData(idx), unsafe.SliceData(val), len(idx), add)
}

// screen lists a's nonzero entries (a NaN is listed, −0 is not) in idx and
// val, ascending, and returns their count. idx and val need room for len(a).
func screen(idx []int32, val []float64, a []float64) int {
	if !useAVX2 {
		return screenGeneric(idx, val, a, 0)
	}
	idx, val = idx[:len(a)], val[:len(a)]
	whole := len(a) &^ 3
	cnt := 0
	if whole > 0 {
		cnt = screenAVX2(&idx[0], &val[0], &a[0], whole, &screenTable)
	}
	return cnt + screenGeneric(idx[cnt:], val[cnt:], a[whole:], whole)
}

// screenBytes lists b's nonzero bytes, as float64 values, in idx and val,
// ascending, and returns their count, which is on. idx and val need room for
// on + 3 entries (or for len(b), if that is fewer): the packed screen stores
// four entries per nibble that lists any, so it may write three past the
// count.
func screenBytes(idx []int32, val []float64, b []uint8, on int) int {
	if !useAVX2 {
		return screenBytesGeneric(idx, val, b, 0)
	}
	room := min(len(b), on+3)
	idx, val = idx[:room], val[:room]
	whole := len(b) &^ 31
	cnt := 0
	if whole > 0 {
		cnt = screenBytesAVX2(&idx[0], &val[0], &b[0], whole, &screenTable)
	}
	return cnt + screenBytesGeneric(idx[cnt:], val[cnt:], b[whole:], whole)
}

// countBytes returns how many of b's bytes are nonzero.
func countBytes(b []uint8) int {
	if !useAVX2 {
		return countBytesGeneric(b)
	}
	whole := len(b) &^ 31
	cnt := 0
	if whole > 0 {
		cnt = countBytesAVX2(&b[0], whole)
	}
	return cnt + countBytesGeneric(b[whole:])
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
