package tensor

import (
	"fmt"
	"testing"

	"lbchat/internal/simrand"
)

// Representative shapes for the default policy (model.DefaultConfig):
// input 3·16·16+3 = 771, hidden 64, training batch 16, probe batches up to
// ~128. The parallel-matmul
// threshold (matMulParallelFlops) is chosen from this data: shapes below it
// are too small to amortize goroutine dispatch, shapes above it are the
// probe-evaluation and scaled-up-model batches that benefit.
func fill(t *Dense) *Dense {
	d := t.Data()
	for i := range d {
		d[i] = float64(i%17) * 0.25
	}
	return t
}

func benchMatMulInto(b *testing.B, m, k, n int) {
	a := fill(New(m, k))
	bm := fill(New(k, n))
	dst := New(m, n)
	b.SetBytes(int64(8 * m * k * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, bm)
	}
}

func BenchmarkMatMulInto(b *testing.B) {
	shapes := []struct{ m, k, n int }{
		{16, 771, 64},  // fc1 forward, training batch
		{16, 64, 64},   // fc2 forward
		{96, 771, 64},  // fc1 forward, probe batch
		{256, 771, 64}, // scaled-up batch: crosses the parallel threshold
	}
	for _, s := range shapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			benchMatMulInto(b, s.m, s.k, s.n)
		})
	}
}

// BenchmarkMatMulIntoWorkers isolates the parallel path at a
// threshold-crossing shape so the serial/parallel crossover is measurable on
// multi-core hosts (on a single core the two runs should tie, which is
// itself the "no regression at workers=1" guarantee).
func BenchmarkMatMulIntoWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			SetWorkers(w)
			defer SetWorkers(0)
			benchMatMulInto(b, 256, 771, 64)
		})
	}
}

func BenchmarkMatMulTransAInto(b *testing.B) {
	// Weight gradient: dW (771×64) = xᵀ (16×771) · grad (16×64).
	a := fill(New(16, 771))
	g := fill(New(16, 64))
	dst := New(771, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransAInto(dst, a, g)
	}
}

func BenchmarkMatMulTransBInto(b *testing.B) {
	// Input gradient: dx (16×771) = grad (16×64) · Wᵀ (771×64).
	g := fill(New(16, 64))
	w := fill(New(771, 64))
	dst := New(16, 771)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransBInto(dst, g, w)
	}
}

// binaryRows returns m rows of k columns in which share of the entries are 1
// and the rest 0 — the first layer's BEV input — as a dense matrix and as
// Rows.
func binaryRows(m, k int, share float64) (*Dense, *Rows) {
	rng := simrand.New(5)
	a := New(m, k)
	rows := new(Rows)
	rows.Reset(k, m*k)
	for i := 0; i < m; i++ {
		row := a.Data()[i*k : (i+1)*k]
		for j := range row {
			if rng.Bernoulli(share) {
				row[j] = 1
			}
		}
		rows.appendDense(row)
		rows.EndRow()
	}
	return a, rows
}

// BenchmarkGatherRows times the first layer's products on a 17 %-dense
// binary input, at the training batch (16 rows) and the evaluation chunk (64):
// the forward product from Rows (the gather alone) and from the dense matrix
// (screen, then gather), and the weight gradient from Rows (the column
// scatter, then the gather).
func BenchmarkGatherRows(b *testing.B) {
	const k, n = 771, 64
	for _, m := range []int{16, 64} {
		a, rows := binaryRows(m, k, 0.17)
		w := fill(New(k, n))
		g := fill(New(m, n))
		out, dW := New(m, n), New(k, n)
		b.Run(fmt.Sprintf("%dx%dx%d/rows", m, k, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulRowsInto(out, rows, w)
			}
		})
		b.Run(fmt.Sprintf("%dx%dx%d/dense", m, k, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulInto(out, a, w)
			}
		})
		b.Run(fmt.Sprintf("%dx%dx%d/dW", m, k, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulTransARowsInto(dW, rows, g)
			}
		})
	}
}
