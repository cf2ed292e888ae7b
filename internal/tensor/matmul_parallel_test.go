package tensor

import "testing"

// TestParallelMatMulBitIdentical pins the determinism contract of the
// chunked kernels: at shapes well above matMulParallelFlops, every worker
// count must produce the exact bits the serial path produces.
func TestParallelMatMulBitIdentical(t *testing.T) {
	const m, k, n = 192, 130, 64 // m·k·n ≈ 1.6M MACs > matMulParallelFlops
	a, b := New(m, k), New(k, n)
	for i, d := range a.Data() {
		a.Data()[i] = d + float64(i%31)*0.37 - 3.1
	}
	for i := range b.Data() {
		b.Data()[i] = float64((i*7)%23)*0.11 - 1.2
	}
	bt := New(n, k) // bᵀ for the TransB kernel
	for i := 0; i < k; i++ {
		for j := 0; j < n; j++ {
			bt.Data()[j*k+i] = b.Data()[i*n+j]
		}
	}

	SetWorkers(1)
	serial := New(m, n)
	MatMulInto(serial, a, b)
	serialTransB := New(m, n)
	MatMulTransBInto(serialTransB, a, bt)

	for _, w := range []int{2, 3, 8, 64} {
		SetWorkers(w)
		got := New(m, n)
		MatMulInto(got, a, b)
		for i, v := range got.Data() {
			if v != serial.Data()[i] {
				t.Fatalf("workers=%d: MatMulInto[%d] = %v, serial %v", w, i, v, serial.Data()[i])
			}
		}
		gotTB := New(m, n)
		MatMulTransBInto(gotTB, a, bt)
		for i, v := range gotTB.Data() {
			if v != serialTransB.Data()[i] {
				t.Fatalf("workers=%d: MatMulTransBInto[%d] = %v, serial %v", w, i, v, serialTransB.Data()[i])
			}
		}
	}
	SetWorkers(0)
}

func TestReuse2D(t *testing.T) {
	a := New(4, 8)
	b := Reuse2D(a, 2, 8) // shrink: must reuse storage
	if &b.Data()[0] != &a.Data()[0] {
		t.Error("Reuse2D reallocated despite sufficient capacity")
	}
	if s := b.Shape(); s[0] != 2 || s[1] != 8 {
		t.Errorf("shape = %v", s)
	}
	c := Reuse2D(b, 16, 16) // grow: must reallocate
	if c.Size() != 256 {
		t.Errorf("grown size = %d", c.Size())
	}
	if d := Reuse2D(nil, 3, 3); d.Size() != 9 {
		t.Errorf("nil reuse size = %d", d.Size())
	}
}

func TestReuseLike(t *testing.T) {
	ref := New(2, 3, 4)
	got := ReuseLike(nil, ref)
	if len(got.Shape()) != 3 || got.Size() != 24 {
		t.Errorf("ReuseLike(nil): shape %v", got.Shape())
	}
	big := New(100)
	reused := ReuseLike(big, ref)
	if &reused.Data()[0] != &big.Data()[0] {
		t.Error("ReuseLike reallocated despite capacity")
	}
	if s := reused.Shape(); s[0] != 2 || s[1] != 3 || s[2] != 4 {
		t.Errorf("ReuseLike shape = %v", s)
	}
}
