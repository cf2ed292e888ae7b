package tensor

import (
	"fmt"
	"sync/atomic"

	"lbchat/internal/parallel"
)

// workerCount is the package-wide worker budget for data-parallel kernels.
// Zero (the default) resolves to GOMAXPROCS; one disables parallel kernels
// entirely. It is read on every large matmul, so it is an atomic rather than
// a plain variable.
var workerCount atomic.Int64

// SetWorkers sets the worker budget for parallel kernels. n <= 0 restores
// the default (one worker per logical CPU); 1 forces the serial paths.
func SetWorkers(n int) { workerCount.Store(int64(n)) }

// Workers returns the effective worker count for parallel kernels.
func Workers() int { return parallel.Resolve(int(workerCount.Load())) }

// matMulParallelFlops is the minimum multiply-accumulate count before a
// matmul fans out across workers. Chosen from the BenchmarkMatMul* data in
// matmul_bench_test.go: goroutine dispatch costs a few microseconds (~10k
// FLOPs of ikj matmul), so each worker must amortize well above that. At
// 1<<20 MACs split 16 ways a worker gets ≥64k MACs (~20µs), keeping dispatch
// overhead under a few percent, while the default policy's training-step
// matmuls (16×771×64 ≈ 790k MACs) stay on the serial path — they sit inside
// the per-vehicle parallel loop, which already owns the cores at that scale.
const matMulParallelFlops = 1 << 20

// MatMulInto computes dst = A·B for 2D tensors A (m×k) and B (k×n), reusing
// dst's storage. dst must be m×n.
//
// Above matMulParallelFlops the row range is split into contiguous chunks,
// one per worker. Each output row is produced by exactly the same arithmetic
// in exactly the same order as the serial path, so results are bit-identical
// at any worker count.
func MatMulInto(dst, a, b *Dense) {
	m, k := mustMatrix(a)
	k2, n := mustMatrix(b)
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmul inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	ad, bd, cd := a.data, b.data, dst.data
	if w := Workers(); w > 1 && m > 1 && m*k*n >= matMulParallelFlops {
		parallel.Chunks(w, m, func(lo, hi int) {
			matMulRows(cd, ad, bd, lo, hi, k, n)
		})
		return
	}
	matMulRows(cd, ad, bd, 0, m, k, n)
}

// The three GEMM loops below are blocked without moving a bit: every output
// element still receives exactly the products the one-accumulator loops gave
// it, in ascending order of the reduction index, through one accumulator.
// Blocking only changes how many of those products are applied per load and
// store of the element (axpy4), which output row is resident while they are
// (MatMulTransAInto), or how many independent elements advance side by side
// (matMulTransBRows). Splitting the reduction index across accumulators
// would be faster still and is NOT order-preserving; see DESIGN.md §15.

// matMulRows computes rows [lo, hi) of C = A·B.
func matMulRows(cd, ad, bd []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		crow := cd[i*n : (i+1)*n]
		clear(crow)
		gatherAxpy(crow, ad, i*k, 1, k, bd)
	}
}

// gatherChunk is how many coefficients gatherAxpy screens for zeros at a
// time; it sizes a stack buffer that is cleared on every call, so it is small.
const gatherChunk = 64

// gatherAxpy adds Σ_p a_p·B[p,:] to c for p = 0..k-1 ascending, where
// a_p = ad[off+p·stride] and B is k×len(c). Coefficients equal to zero are
// skipped — the BEV input is ≈ 80 % zeros — so a NaN or Inf in a row of B
// opposite a zero coefficient never enters the sum. The non-zero
// coefficients are applied four at a time, in order.
//
// Zeros are screened a chunk at a time into a list of the reduction indices
// that survive, written unconditionally and kept by advancing the count, so
// the screen has no data-dependent branch to mispredict; up to three
// survivors wait at the head of the list for the next chunk to complete
// their group of four.
func gatherAxpy(c, ad []float64, off, stride, k int, bd []float64) {
	n := len(c)
	var nz [gatherChunk + 3]int
	cnt := 0
	for lo := 0; lo < k; lo += gatherChunk {
		for p := lo; p < min(lo+gatherChunk, k); p++ {
			nz[cnt] = p
			if ad[off+p*stride] != 0 {
				cnt++
			}
		}
		q := 0
		for ; q+4 <= cnt; q += 4 {
			p0, p1, p2, p3 := nz[q], nz[q+1], nz[q+2], nz[q+3]
			axpy4(c, bd[p0*n:p0*n+n], bd[p1*n:p1*n+n], bd[p2*n:p2*n+n], bd[p3*n:p3*n+n],
				ad[off+p0*stride], ad[off+p1*stride], ad[off+p2*stride], ad[off+p3*stride])
		}
		cnt = copy(nz[:], nz[q:cnt])
	}
	switch cnt {
	case 3:
		p0, p1, p2 := nz[0], nz[1], nz[2]
		axpy3(c, bd[p0*n:p0*n+n], bd[p1*n:p1*n+n], bd[p2*n:p2*n+n],
			ad[off+p0*stride], ad[off+p1*stride], ad[off+p2*stride])
	case 2:
		p0, p1 := nz[0], nz[1]
		axpy2(c, bd[p0*n:p0*n+n], bd[p1*n:p1*n+n], ad[off+p0*stride], ad[off+p1*stride])
	case 1:
		p0 := nz[0]
		axpy1(c, bd[p0*n:p0*n+n], ad[off+p0*stride])
	}
}

// MatMulTransAInto computes dst = Aᵀ·B where A is k×m and B is k×n;
// dst must be m×n.
//
// Row i of dst is Σ_p A[p,i]·B[p,:]: the rows are independent and each is
// finished — p ascending, as ever — while it sits in L1. The kernel stays
// serial only because no caller's product reaches matMulParallelFlops.
func MatMulTransAInto(dst, a, b *Dense) {
	k, m, n := mustTransA(a, b)
	for i := 0; i < m; i++ {
		crow := dst.data[i*n : (i+1)*n]
		clear(crow)
		gatherAxpy(crow, a.data, i, m, k, b.data)
	}
}

// addRowBuf is the widest product row AddMatMulTransA finishes on the stack;
// every layer of the policy is narrower.
const addRowBuf = 256

// AddMatMulTransA computes dst += Aᵀ·B where A is k×m and B is k×n; dst must
// be m×n. This is how layers accumulate weight gradients. Each row of the
// product is finished in a row-sized buffer and then added, so dst holds
// exactly the bits MatMulTransAInto into scratch followed by an elementwise
// add would leave — including −0 + +0 = +0 where a product row is all zeros —
// without the scratch matrix or the second pass over it.
func AddMatMulTransA(dst, a, b *Dense) {
	k, m, n := mustTransA(a, b)
	var stack [addRowBuf]float64
	buf := stack[:]
	if n > len(buf) {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	for i := 0; i < m; i++ {
		clear(buf)
		gatherAxpy(buf, a.data, i, m, k, b.data)
		addRow(dst.data[i*n:(i+1)*n], buf)
	}
}

func mustTransA(a, b *Dense) (k, m, n int) {
	k, m = mustMatrix(a)
	k2, n := mustMatrix(b)
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmulTransA inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	return k, m, n
}

// MatMulTransBInto computes dst = A·Bᵀ where A is m×k and B is n×k;
// dst must be m×n. Used for input gradients. Rows of dst are independent, so
// large shapes take the same chunked-parallel path as MatMulInto.
func MatMulTransBInto(dst, a, b *Dense) {
	m, k := mustMatrix(a)
	n, k2 := mustMatrix(b)
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmulTransB inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	ad, bd, cd := a.data, b.data, dst.data
	if w := Workers(); w > 1 && m > 1 && m*k*n >= matMulParallelFlops {
		parallel.Chunks(w, m, func(lo, hi int) {
			matMulTransBRows(cd, ad, bd, lo, hi, k, n)
		})
		return
	}
	matMulTransBRows(cd, ad, bd, 0, m, k, n)
}

// matMulTransBRows computes rows [lo, hi) of C = A·Bᵀ, four output columns
// at a time: each column keeps its own single accumulator over ascending p,
// so the four dot products are the ones the one-column loop computes, run as
// four independent dependency chains.
func matMulTransBRows(cd, ad, bd []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := bd[j*k : (j+1)*k][:len(arow)]
			b1 := bd[(j+1)*k : (j+2)*k][:len(arow)]
			b2 := bd[(j+2)*k : (j+3)*k][:len(arow)]
			b3 := bd[(j+3)*k : (j+4)*k][:len(arow)]
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := bd[j*k : (j+1)*k][:len(arow)]
			var acc float64
			for p, av := range arow {
				acc += av * brow[p]
			}
			crow[j] = acc
		}
	}
}

func mustMatrix(t *Dense) (rows, cols int) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: expected 2D tensor, got shape %v", t.shape))
	}
	return t.shape[0], t.shape[1]
}
