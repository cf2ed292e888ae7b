package tensor

import (
	"math"
	"testing"
)

// TestRowsMatchDenseForm builds Rows from bytes, dense values and single
// values, and checks the list against the dense matrix: ascending columns,
// NaN listed, ±0 not, every row ended where it should.
func TestRowsMatchDenseForm(t *testing.T) {
	var r Rows
	r.Reset(40, 0)
	bytes := make([]uint8, 37)
	bytes[0], bytes[5], bytes[31], bytes[32], bytes[36] = 1, 200, 7, 9, 255
	r.AppendBytes(bytes)
	r.AppendValue(37, negZero)
	r.AppendValue(38, math.NaN())
	r.AppendValue(39, 0.5)
	r.EndRow()
	r.appendDense([]float64{0, negZero, 2, 0, math.Inf(-1)})
	r.EndRow()
	r.EndRow()
	want := [][]int32{{0, 5, 31, 32, 36, 38, 39}, {2, 4}, {}}
	if r.NumRows() != len(want) {
		t.Fatalf("%d rows, want %d", r.NumRows(), len(want))
	}
	for i, w := range want {
		idx, val := r.row(i)
		if len(idx) != len(w) {
			t.Fatalf("row %d lists %v, want %v", i, idx, w)
		}
		for q, c := range w {
			if idx[q] != c {
				t.Fatalf("row %d lists %v, want %v", i, idx, w)
			}
		}
		if i == 0 && (val[1] != 200 || val[4] != 255 || !math.IsNaN(val[5])) {
			t.Fatalf("row 0 values %v", val)
		}
	}
}

// TestRowsRejectMalformed: a Rows the kernels cannot trust panics in Go
// before any assembly reads through it.
func TestRowsRejectMalformed(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", what)
			}
		}()
		f()
	}
	b := New(4, 3)
	bad := func() *Rows {
		var r Rows
		r.Reset(4, 8)
		r.AppendValue(1, 1)
		r.AppendValue(3, 2)
		r.EndRow()
		return &r
	}
	mustPanic("column past Cols", func() {
		r := bad()
		r.Idx[1] = 4
		MatMulRowsInto(New(1, 3), r, b)
	})
	mustPanic("negative column", func() {
		r := bad()
		r.Idx[0] = -1
		MatMulTransARowsInto(New(4, 3), r, New(1, 3))
	})
	mustPanic("end past the entries", func() {
		r := bad()
		r.End[0] = 5
		MatMulRowsInto(New(1, 3), r, b)
	})
	mustPanic("columns out of order", func() {
		var r Rows
		r.Reset(4, 0)
		r.AppendValue(3, 1)
		r.AppendValue(2, 1)
	})
	mustPanic("bytes wider than the row", func() {
		var r Rows
		r.Reset(2, 0)
		r.AppendBytes([]uint8{1, 2, 3})
	})
}
