package tensor

import (
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

func TestFromSliceNoCopy(t *testing.T) {
	data := []float64{1, 2, 3, 4}
	x := FromSlice(data, 2, 2)
	data[0] = 9
	if x.At(0, 0) != 9 {
		t.Error("FromSlice must wrap, not copy")
	}
}

func TestFromSliceLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on length mismatch")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestAtSet(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if x.At(1, 2) != 7 {
		t.Error("At after Set")
	}
	if x.Data()[5] != 7 {
		t.Error("row-major layout broken")
	}
}

func TestCloneIndependent(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	y := x.Clone()
	y.Data()[0] = 5
	if x.Data()[0] != 1 {
		t.Error("clone shares storage")
	}
}

func TestElementwiseOps(t *testing.T) {
	x := FromSlice([]float64{1, 2}, 2)
	x.ScaleInPlace(3)
	if x.Data()[0] != 3 || x.Data()[1] != 6 {
		t.Errorf("ScaleInPlace: %v", x.Data())
	}
}

func TestNorms(t *testing.T) {
	x := FromSlice([]float64{3, -4}, 2)
	if x.L2Norm() != 5 {
		t.Errorf("L2Norm = %v", x.L2Norm())
	}
	if x.Dot(x) != 25 {
		t.Errorf("Dot = %v", x.Dot(x))
	}
}

func TestEqual(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := FromSlice([]float64{1, 2.0000001}, 2)
	if !Equal(a, b, 1e-6) {
		t.Error("Equal within tolerance failed")
	}
	if Equal(a, b, 1e-9) {
		t.Error("Equal beyond tolerance passed")
	}
	c := FromSlice([]float64{1, 2}, 1, 2)
	if Equal(a, c, 1) {
		t.Error("Equal across shapes passed")
	}
}

func naiveMatMul(a, b *Dense) *Dense {
	m, k := a.Shape()[0], a.Shape()[1]
	n := b.Shape()[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for p := 0; p < k; p++ {
				acc += a.At(i, p) * b.At(p, j)
			}
			c.Set(acc, i, j)
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
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := matMul(a, b)
	want := naiveMatMul(a, b)
	if !Equal(got, want, 1e-12) {
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
		return Equal(matMul(a, b), naiveMatMul(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMatMulTransA(t *testing.T) {
	// Aᵀ·B computed directly must match transposing then multiplying.
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 3, 2) // 3×2 → Aᵀ is 2×3
	b := FromSlice([]float64{1, 0, 0, 1, 1, 1}, 3, 2)
	got := New(2, 2)
	MatMulTransAInto(got, a, b)
	at := FromSlice([]float64{1, 3, 5, 2, 4, 6}, 2, 3)
	want := naiveMatMul(at, b)
	if !Equal(got, want, 1e-12) {
		t.Errorf("TransA = %v, want %v", got.Data(), want.Data())
	}
}

func TestMatMulTransB(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2) // Bᵀ = [[5,7],[6,8]]
	got := New(2, 2)
	MatMulTransBInto(got, a, b)
	bt := FromSlice([]float64{5, 7, 6, 8}, 2, 2)
	want := naiveMatMul(a, bt)
	if !Equal(got, want, 1e-12) {
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
