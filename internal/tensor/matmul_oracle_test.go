package tensor

import (
	"fmt"
	"math"
	"testing"

	"lbchat/internal/simrand"
)

// The four loop nests the seed shipped, kept verbatim as bit-level oracles
// for the blocked kernels in matmul.go: one accumulator per output element,
// products added in ascending reduction index, zeros of A skipped.

func oracleMatMulRows(cd, ad, bd []float64, lo, hi, k, n int) {
	for i := lo * n; i < hi*n; i++ {
		cd[i] = 0
	}
	// ikj loop order: streams through b and c rows sequentially.
	for i := lo; i < hi; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := bd[p*n : (p+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

func oracleTransA(dst, a, b *Dense) {
	k, m := mustMatrix(a)
	_, n := mustMatrix(b)
	cd := dst.data
	for i := range cd {
		cd[i] = 0
	}
	for p := 0; p < k; p++ {
		arow := a.data[p*m : (p+1)*m]
		brow := b.data[p*n : (p+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			crow := cd[i*n : (i+1)*n]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
}

func oracleTransB(cd, ad, bd []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		arow := ad[i*k : (i+1)*k]
		crow := cd[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := bd[j*k : (j+1)*k]
			var acc float64
			for p, av := range arow {
				acc += av * brow[p]
			}
			crow[j] = acc
		}
	}
}

// oracleTransAThenAdd is what Dense.Backward and Conv2D.Backward did before
// AddMatMulTransA: the product into scratch, then an elementwise add.
func oracleTransAThenAdd(dst, a, b *Dense) {
	scratch := New(dst.shape...)
	oracleTransA(scratch, a, b)
	for i, v := range scratch.data {
		dst.data[i] += v
	}
}

// kernelCase is one (A, B) pair in both layouts the kernels read.
type kernelCase struct {
	name    string
	m, k, n int
	a, b    *Dense // A is m×k, B is k×n
	at, bt  *Dense // Aᵀ (k×m) and Bᵀ (n×k)
}

// newKernelCase fills A with the given share of zeros (some of them −0) and
// B with finite values; hostile additionally puts NaN into a few non-zero
// entries of A, and NaN/±Inf into rows of B that only ever meet zeros of A —
// the zero skip must keep those out of every sum.
func newKernelCase(m, k, n int, zeroShare float64, hostile bool, rng *simrand.Rand) kernelCase {
	c := kernelCase{
		name: fmt.Sprintf("%dx%dx%d/zeros=%v/hostile=%v", m, k, n, zeroShare, hostile),
		m:    m, k: k, n: n,
		a: New(m, k), b: New(k, n), at: New(k, m), bt: New(n, k),
	}
	ad, bd := c.a.data, c.b.data
	for i := range ad {
		switch {
		case rng.Bernoulli(zeroShare):
			if rng.Bernoulli(0.3) {
				ad[i] = math.Copysign(0, -1)
			}
		case hostile && rng.Bernoulli(0.02):
			ad[i] = math.NaN()
		default:
			ad[i] = rng.Uniform(-2, 2)
		}
	}
	for i := range bd {
		bd[i] = rng.Uniform(-2, 2)
		if rng.Bernoulli(0.05) {
			bd[i] = math.Copysign(0, -1)
		}
	}
	if hostile {
		poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		for p := 0; p < k; p++ {
			if rng.Bernoulli(0.5) {
				continue
			}
			// Row p of B meets column p of A: poison it and clear the column.
			for i := 0; i < m; i++ {
				ad[i*k+p] = 0
			}
			for j := 0; j < n; j++ {
				bd[p*n+j] = poison[(p+j)%len(poison)]
			}
		}
	}
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			c.at.data[p*m+i] = ad[i*k+p]
		}
	}
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			c.bt.data[j*k+p] = bd[p*n+j]
		}
	}
	return c
}

// sameBits requires identical bit patterns, except that any NaN matches any
// NaN: which payload survives NaN + NaN depends on the operand order the
// compiler picks for a commutative add, not on the order of the sum.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), oracle %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestKernelsMatchOracleBits compares every kernel with its seed loop nest,
// bit for bit, over sizes that hit every tail length of the 4-wide blocks and
// of the 4-lane packed kernels beside zero, one and two whole vectors (a
// tensor has no zero dimension: n = 0 and operands at chosen offsets from a
// 32-byte boundary are TestPackedKernelsMatchGenericBits', though the odd
// widths here already start successive rows of B at every offset), over A
// sparsities from dense to all-zero, and with NaN/Inf placed where the zero
// skip must (B opposite zeros of A) and must not (A itself) hide them.
func TestKernelsMatchOracleBits(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 63, 64, 65, 771}
	rng := simrand.New(17)
	sweep := func(m, k, n int) {
		for _, zeros := range []float64{0, 0.5, 0.8, 1} {
			for _, hostile := range []bool{false, true} {
				checkKernels(t, newKernelCase(m, k, n, zeros, hostile, rng), rng)
			}
		}
	}
	for _, m := range sizes {
		for _, k := range sizes {
			for _, n := range sizes {
				// Every size meets every tail length; the few products above
				// this bound (all involving 771) only repeat them at a cost
				// of seconds.
				if m*k*n <= 1<<16 {
					sweep(m, k, n)
				}
			}
		}
	}
	// The policy's widest layer in every role it plays.
	for _, s := range [][3]int{{16, 771, 64}, {16, 64, 771}, {771, 16, 64}, {64, 771, 16}} {
		sweep(s[0], s[1], s[2])
	}
}

func checkKernels(t *testing.T, c kernelCase, rng *simrand.Rand) {
	t.Helper()
	m, k, n := c.m, c.k, c.n
	got, want := New(m, n), New(m, n)
	got.Fill(math.NaN()) // every element must be overwritten
	want.Fill(math.NaN())

	MatMulInto(got, c.a, c.b)
	oracleMatMulRows(want.data, c.a.data, c.b.data, 0, m, k, n)
	sameBits(t, c.name+" MatMulInto", got.data, want.data)

	got.Fill(math.NaN())
	MatMulTransAInto(got, c.at, c.b)
	oracleTransA(want, c.at, c.b)
	sameBits(t, c.name+" MatMulTransAInto", got.data, want.data)

	got.Fill(math.NaN())
	MatMulTransBInto(got, c.a, c.bt)
	oracleTransB(want.data, c.a.data, c.bt.data, 0, m, k, n)
	sameBits(t, c.name+" MatMulTransBInto", got.data, want.data)

	// dst += Aᵀ·B onto a dst holding −0, +0 and non-zero values: an all-zero
	// product row must still turn −0 into +0, exactly as adding a zeroed
	// scratch row did.
	for i := range got.data {
		v := rng.Uniform(-1, 1)
		switch i % 3 {
		case 0:
			v = math.Copysign(0, -1)
		case 1:
			v = 0
		}
		got.data[i], want.data[i] = v, v
	}
	AddMatMulTransA(got, c.at, c.b)
	oracleTransAThenAdd(want, c.at, c.b)
	sameBits(t, c.name+" AddMatMulTransA", got.data, want.data)
}

// TestAddMatMulTransAZeroProductRow pins the −0 rule by itself: column 1 of A
// is all zeros, so row 1 of Aᵀ·B is +0 everywhere and −0 + +0 must read +0.
func TestAddMatMulTransAZeroProductRow(t *testing.T) {
	a := FromSlice([]float64{1, 0, 2, 0}, 2, 2) // k=2, m=2
	b := FromSlice([]float64{3, 4, 5, 6}, 2, 2)
	negZero := math.Copysign(0, -1)
	dst := FromSlice([]float64{negZero, 1, negZero, negZero}, 2, 2)
	AddMatMulTransA(dst, a, b)
	want := []float64{13, 17, 0, 0}
	sameBits(t, "dst", dst.data, want)
}

// TestAddMatMulTransAWideRows crosses the stack-buffer width.
func TestAddMatMulTransAWideRows(t *testing.T) {
	rng := simrand.New(3)
	c := newKernelCase(3, 5, addRowBuf+9, 0.5, false, rng)
	got, want := New(c.m, c.n), New(c.m, c.n)
	got.Fill(0.25)
	want.Fill(0.25)
	AddMatMulTransA(got, c.at, c.b)
	oracleTransAThenAdd(want, c.at, c.b)
	sameBits(t, "wide", got.data, want.data)
}
