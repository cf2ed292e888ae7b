package tensor

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Size() != 6 {
		t.Fatalf("size = %d", x.Size())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("not zero-filled")
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for non-positive dimension")
		}
	}()
	New(2, 0)
}

func TestElementwiseOps(t *testing.T) {
	x := mat(2, 2, 1, 2, 3, 4)
	x.AddToRows([]float64{10, 20})
	sameBits(t, "AddToRows", x.Data(), []float64{11, 22, 13, 24})
	sums := []float64{1, 1}
	x.SumRowsInto(sums)
	sameBits(t, "SumRowsInto", sums, []float64{25, 47})
	out := make([]float64, 4)
	KeepPositive(out, []float64{-1, 5, math.NaN(), 7}, []float64{1, 0, 2, math.NaN()})
	sameBits(t, "KeepPositive", out, []float64{-1, 0, math.NaN(), 0})
}

// mat returns a rows×cols matrix holding data, row-major.
func mat(rows, cols int, data ...float64) *Dense {
	if len(data) != rows*cols {
		panic("tensor test: matrix data does not match its shape")
	}
	t := New(rows, cols)
	copy(t.Data(), data)
	return t
}

// within reports whether a and b have one shape and elementwise differences
// of at most tol.
func within(a, b *Dense, tol float64) bool {
	if !slices.Equal(a.Shape(), b.Shape()) {
		return false
	}
	for i, v := range a.Data() {
		if math.Abs(v-b.Data()[i]) > tol {
			return false
		}
	}
	return true
}

func naiveMatMul(a, b *Dense) *Dense {
	m, k := a.Shape()[0], a.Shape()[1]
	n := b.Shape()[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for p := 0; p < k; p++ {
				acc += a.Data()[i*k+p] * b.Data()[p*n+j]
			}
			c.Data()[i*n+j] = acc
		}
	}
	return c
}

// matMul is MatMulInto into a fresh m×n tensor.
func matMul(a, b *Dense) *Dense {
	c := New(a.Shape()[0], b.Shape()[1])
	MatMulInto(c, a, b)
	return c
}

func TestMatMulAgainstNaive(t *testing.T) {
	a := mat(2, 3, 1, 2, 3, 4, 5, 6)
	b := mat(3, 2, 7, 8, 9, 10, 11, 12)
	got := matMul(a, b)
	want := naiveMatMul(a, b)
	if !within(got, want, 1e-12) {
		t.Errorf("MatMulInto = %v, want %v", got.Data(), want.Data())
	}
}

func TestMatMulProperty(t *testing.T) {
	f := func(raw int64) bool {
		seed := raw
		if seed < 0 {
			seed = -(seed + 1)
		}
		m, k, n := int(seed%4)+1, int(seed%3)+1, int(seed%5)+1
		a := New(m, k)
		b := New(k, n)
		for i := range a.Data() {
			a.Data()[i] = float64((seed+int64(i)*7)%13) / 3
		}
		for i := range b.Data() {
			b.Data()[i] = float64((seed+int64(i)*11)%17) / 5
		}
		return within(matMul(a, b), naiveMatMul(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMatMulTransA(t *testing.T) {
	// Aᵀ·B computed directly must match transposing then multiplying.
	a := mat(3, 2, 1, 2, 3, 4, 5, 6) // 3×2 → Aᵀ is 2×3
	b := mat(3, 2, 1, 0, 0, 1, 1, 1)
	got := New(2, 2)
	MatMulTransAInto(got, a, b)
	at := mat(2, 3, 1, 3, 5, 2, 4, 6)
	want := naiveMatMul(at, b)
	if !within(got, want, 1e-12) {
		t.Errorf("TransA = %v, want %v", got.Data(), want.Data())
	}
}

func TestMatMulTransB(t *testing.T) {
	a := mat(2, 2, 1, 2, 3, 4)
	b := mat(2, 2, 5, 6, 7, 8) // Bᵀ = [[5,7],[6,8]]
	got := New(2, 2)
	MatMulTransBInto(got, a, b)
	bt := mat(2, 2, 5, 7, 6, 8)
	want := naiveMatMul(a, bt)
	if !within(got, want, 1e-12) {
		t.Errorf("TransB = %v, want %v", got.Data(), want.Data())
	}
}

func TestMatMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on inner-dimension mismatch")
		}
	}()
	matMul(New(2, 3), New(2, 2))
}
