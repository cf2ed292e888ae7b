package tensor

import (
	"fmt"
	"sync"
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

// matMulParallelFlops is the minimum multiply-accumulate count (m·k·n)
// before a dense matmul fans out across workers. Chosen from the
// BenchmarkMatMul* data in matmul_bench_test.go: goroutine dispatch costs a
// few microseconds (~10k FLOPs of ikj matmul), so each worker must amortize
// well above that. At 1<<20 MACs split 16 ways a worker gets ≥64k MACs
// (~20µs), keeping dispatch overhead under a few percent, while the default
// policy's training-step products (fc2's 16×64×64, the heads') stay on the
// serial path — they sit inside the per-vehicle parallel loop, which already
// owns the cores at that scale. The first layer's product, from Rows, does
// only the listed entries' work (≈ 135 a row × 64 columns) and is serial.
const matMulParallelFlops = 1 << 20

// MatMulInto computes dst = A·B for 2D tensors A (m×k) and B (k×n), reusing
// dst's storage. dst must be m×n. No layer calls it (nn.Dense screens its
// input into Rows once and calls MatMulRowsInto): it stays for
// benchmarks/perf/kernels.go's tensor.matmul_us row, and for the tests,
// until ROADMAP item 13(c) retargets that row.
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
	mustShape(dst, m, n)
	ad, bd, cd := a.data, b.data, dst.data
	if w := Workers(); w > 1 && m > 1 && m*k*n >= matMulParallelFlops {
		parallel.Chunks(w, m, func(lo, hi int) {
			matMulRows(cd, ad, bd, lo, hi, k, n)
		})
		return
	}
	matMulRows(cd, ad, bd, 0, m, k, n)
}

// The GEMMs that skip zeros share one path: the survivors — the reduction
// indices p whose coefficient a_p is nonzero, and those coefficients — are
// listed once, by a packed screen, and one gather then gives every output
// element ((+0 + a_p0·B[p0, j]) + a_p1·B[p1, j]) + … over them in ascending
// p, through one accumulator. That is the sum the seed's loops formed, bit
// for bit; the gather only chooses which output elements are in registers
// while it runs (DESIGN.md §15). Splitting the reduction index across
// accumulators would be faster still and is NOT order-preserving.

// gemmScratch holds the survivor lists of one dense product — one row's, or
// all of A's as Rows — and, for MatMulTransBInto, B transposed. It is
// pooled, so the dense kernels allocate nothing in steady state (outside the
// race detector, which drops pooled items on purpose) and stay safe to call
// from many goroutines at once. The layers
// keep their own Rows instead (nn.Dense); the pool's only non-test callers
// are MatMulInto, MatMulTransAInto and MatMulTransBInto, on benchmarks/perf's
// kernel rows (ROADMAP item 13(c)).
type gemmScratch struct {
	idx  []int32
	val  []float64
	bt   []float64
	rows Rows
}

var gemmPool = sync.Pool{New: func() any { return new(gemmScratch) }}

// grown returns s resliced to n, reallocated if its capacity is short.
func grown[T int32 | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// matMulRows computes rows [lo, hi) of C = A·B: screen a row, gather it.
func matMulRows(cd, ad, bd []float64, lo, hi, k, n int) {
	s := gemmPool.Get().(*gemmScratch)
	s.idx, s.val = grown(s.idx, k), grown(s.val, k)
	for i := lo; i < hi; i++ {
		cnt := screen(s.idx, s.val, ad[i*k:(i+1)*k])
		gather(cd[i*n:(i+1)*n], bd, s.idx[:cnt], s.val[:cnt])
	}
	gemmPool.Put(s)
}

// MatMulRowsInto computes dst = A·B for A given as rows (m×k: m = a.NumRows(),
// k = a.Cols) and B k×n; dst must be m×n. It is MatMulInto on A's dense form,
// bit for bit, with no screen to run: the rows are the survivor lists. It is
// serial: even an evaluation chunk's 64 rows list under matMulParallelFlops
// products.
func MatMulRowsInto(dst *Dense, a *Rows, b *Dense) {
	k, n := mustMatrix(b)
	m := a.NumRows()
	if a.Cols != k {
		panic(fmt.Sprintf("tensor: matmul inner dimension mismatch %d columns x %v", a.Cols, b.shape))
	}
	mustShape(dst, m, n)
	for _, c := range a.Idx {
		if uint32(c) >= uint32(k) {
			panic(fmt.Sprintf("tensor: column %d listed in rows of %d columns", c, k))
		}
	}
	for i := 0; i < m; i++ {
		idx, val := a.row(i)
		gather(dst.data[i*n:(i+1)*n], b.data, idx, val)
	}
}

// MatMulTransAInto computes dst = Aᵀ·B where A is k×m and B is k×n;
// dst must be m×n. Row i of dst is Σ_p A[p,i]·B[p,:]: A is screened row-major
// once, one counting scatter turns the survivors into a list per column of
// A, and each row of dst gathers its column's list from B. The kernel stays
// serial only because no caller's product reaches matMulParallelFlops. No
// layer calls it (weight gradients are written by MatMulTransARowsInto): it
// stays for benchmarks/perf/kernels.go's tensor.matmul_transa_us row, and
// for the tests, until ROADMAP item 13(c) retargets that row.
func MatMulTransAInto(dst, a, b *Dense) {
	_, m, n := mustTransA(a, b)
	mustShape(dst, m, n)
	s := gemmPool.Get().(*gemmScratch)
	s.rows.SetDense(a)
	s.rows.transA(dst.data, b.data, n)
	gemmPool.Put(s)
}

// MatMulTransARowsInto computes dst = Aᵀ·B for A given as rows (k×m: k =
// a.NumRows(), m = a.Cols) and B k×n; dst must be m×n. It leaves the bits
// MatMulTransAInto leaves on A's dense form, with no screen to run, and it is
// how layers write their weight gradients: every row, +0 throughout for a
// column no row lists, so nothing needs clearing first. The column lists are
// built in storage a holds, so a Rows must not be used by two calls at once.
func MatMulTransARowsInto(dst *Dense, a *Rows, b *Dense) {
	k, n := mustMatrix(b)
	if a.NumRows() != k {
		panic(fmt.Sprintf("tensor: matmulTransA inner dimension mismatch %d rows x %v", a.NumRows(), b.shape))
	}
	mustShape(dst, a.Cols, n)
	a.transA(dst.data, b.data, n)
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
// dst must be m×n. B is transposed into pooled scratch once, and the product
// is then MatMulInto's on (A, Bᵀ): each row of A screened, its survivors
// gathered from the rows of Bᵀ. That skips A's zeros and, as the
// zero-skipping kernels do, keeps a NaN or ±Inf of B that meets only zeros
// of A out of the sum. Large shapes take MatMulInto's chunked-parallel path.
// nn.Dense.Backward computes its input gradient with these bits in scratch
// of its own (Rows, a transposed W); this pooled form stays for
// benchmarks/perf/kernels.go's tensor.matmul_transb_us row and the tests.
func MatMulTransBInto(dst, a, b *Dense) {
	m, k := mustMatrix(a)
	n, k2 := mustMatrix(b)
	if k != k2 {
		panic(fmt.Sprintf("tensor: matmulTransB inner dimension mismatch %v x %v", a.shape, b.shape))
	}
	mustShape(dst, m, n)
	s := gemmPool.Get().(*gemmScratch)
	s.bt = grown(s.bt, k*n)
	bt, bd := s.bt, b.data
	for j := 0; j < n; j++ {
		for p, v := range bd[j*k : (j+1)*k] {
			bt[p*n+j] = v
		}
	}
	ad, cd := a.data, dst.data
	if w := Workers(); w > 1 && m > 1 && m*k*n >= matMulParallelFlops {
		parallel.Chunks(w, m, func(lo, hi int) {
			matMulRows(cd, ad, bt, lo, hi, k, n)
		})
	} else {
		matMulRows(cd, ad, bt, 0, m, k, n)
	}
	gemmPool.Put(s)
}

func mustShape(t *Dense, rows, cols int) {
	if r, c := mustMatrix(t); r != rows || c != cols {
		panic(fmt.Sprintf("tensor: destination shape %v, want [%d %d]", t.shape, rows, cols))
	}
}

func mustMatrix(t *Dense) (rows, cols int) {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: expected 2D tensor, got shape %v", t.shape))
	}
	return t.shape[0], t.shape[1]
}
