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
// overlap.
func AdamUpdate(value, grad, m, v []float64, k *AdamCoef) {
	adamUpdateGeneric(value, grad, m, v, k)
}
