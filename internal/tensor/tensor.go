package tensor

import (
	"fmt"
	"math"
)

// Dense is a dense row-major tensor of float64 values.
type Dense struct {
	shape []int
	data  []float64
}

// New allocates a zero-filled tensor with the given shape. Each dimension
// must be positive.
func New(shape ...int) *Dense {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Dense{shape: s, data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The data is NOT
// copied; the caller must not alias it unexpectedly. The data length must
// match the shape volume.
func FromSlice(data []float64, shape ...int) *Dense {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Dense{shape: s, data: data}
}

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Dense) Shape() []int { return t.shape }

// Size returns the total number of elements.
func (t *Dense) Size() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Dense) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Dense) Clone() *Dense {
	out := New(t.shape...)
	copy(out.data, t.data)
	return out
}

// Reuse2D returns a (rows, cols) matrix, reusing t's storage when its
// capacity suffices and allocating otherwise (t may be nil). The returned
// tensor's CONTENTS ARE UNSPECIFIED — callers must overwrite every element.
// This is the scratch-reuse primitive behind the allocation-free training
// hot path in internal/nn.
func Reuse2D(t *Dense, rows, cols int) *Dense {
	n := rows * cols
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: non-positive reuse shape %dx%d", rows, cols))
	}
	if t == nil || cap(t.data) < n {
		return New(rows, cols)
	}
	t.data = t.data[:n]
	if len(t.shape) == 2 {
		t.shape[0], t.shape[1] = rows, cols
	} else {
		t.shape = []int{rows, cols}
	}
	return t
}

// ReuseLike is Reuse2D with the target shape taken from ref (any rank).
// Contents are unspecified, exactly as for Reuse2D.
func ReuseLike(t *Dense, ref *Dense) *Dense {
	n := len(ref.data)
	if t == nil || cap(t.data) < n {
		t = &Dense{data: make([]float64, n)}
	} else {
		t.data = t.data[:n]
	}
	if len(t.shape) == len(ref.shape) {
		copy(t.shape, ref.shape)
	} else {
		t.shape = append([]int(nil), ref.shape...)
	}
	return t
}

// At returns the element at the given multi-index.
func (t *Dense) At(idx ...int) float64 {
	return t.data[t.offset(idx)]
}

// Set writes the element at the given multi-index.
func (t *Dense) Set(v float64, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Dense) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + ix
	}
	return off
}

// Zero sets every element to zero.
func (t *Dense) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Dense) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// ScaleInPlace multiplies every element by s.
func (t *Dense) ScaleInPlace(s float64) { scale(t.data, s) }

// AddToRows adds v to every row of the matrix t (a layer's bias).
func (t *Dense) AddToRows(v []float64) {
	rows, cols := mustMatrix(t)
	v = v[:cols]
	for i := 0; i < rows; i++ {
		addRow(t.data[i*cols:(i+1)*cols], v)
	}
}

// SumRowsInto adds the rows of the matrix t to dst, one row at a time from
// row 0 (a bias gradient).
func (t *Dense) SumRowsInto(dst []float64) {
	rows, cols := mustMatrix(t)
	dst = dst[:cols]
	for i := 0; i < rows; i++ {
		addRow(dst, t.data[i*cols:(i+1)*cols])
	}
}

// Dot returns the inner product of t and other viewed as flat vectors.
func (t *Dense) Dot(other *Dense) float64 {
	assertSameSize(t, other)
	var acc float64
	for i, v := range t.data {
		acc += v * other.data[i]
	}
	return acc
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Dense) L2Norm() float64 {
	var acc float64
	for _, v := range t.data {
		acc += v * v
	}
	return math.Sqrt(acc)
}

// Equal reports whether two tensors have identical shapes and elementwise
// differences at most tol.
func Equal(a, b *Dense, tol float64) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	for i := range a.data {
		if math.Abs(a.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

func assertSameSize(a, b *Dense) {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: size mismatch %v vs %v", a.shape, b.shape))
	}
}
