package tensor

import "fmt"

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

// Shape returns the tensor's shape. The returned slice must not be mutated.
func (t *Dense) Shape() []int { return t.shape }

// Size returns the total number of elements.
func (t *Dense) Size() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Dense) Data() []float64 { return t.data }

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

// Zero sets every element to zero.
func (t *Dense) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

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
