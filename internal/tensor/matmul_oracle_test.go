package tensor

import (
	"fmt"
	"math"
	"testing"

	"lbchat/internal/simrand"
)

// The loop nests the seed shipped, kept as bit-level oracles for the blocked
// kernels in matmul.go: one accumulator per output element, products added
// in ascending reduction index, zeros of A skipped.

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
				if av == 0 {
					continue
				}
				acc += av * brow[p]
			}
			crow[j] = acc
		}
	}
}

// matMulTransBRows is MatMulTransBInto as it ran before it joined the
// gather path: rows [lo, hi) of C = A·Bᵀ, four output columns at a time, each
// column's single accumulator over every p ascending, zeros of A included.
// On finite operands it agrees with the zero-skipping kernel bit for bit (a
// zero of A times a finite B adds ±0 to a sum that is never −0); a NaN or
// ±Inf of B that meets only zeros of A reaches its sum and not the gather's.
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

// kernelCase is one (A, B) pair in both layouts the kernels read.
type kernelCase struct {
	name    string
	m, k, n int
	hostile bool
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
		m:    m, k: k, n: n, hostile: hostile,
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

// writeMatMulTransA is dst = Aᵀ·B as a layer writes its weight gradient: A
// screened into Rows (nn.Dense.Forward's Rows.SetDense), then
// MatMulTransARowsInto.
func writeMatMulTransA(dst, a, b *Dense) {
	var r Rows
	r.SetDense(a)
	MatMulTransARowsInto(dst, &r, b)
}

// setAll sets every element of t to v.
func setAll(t *Dense, v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

func checkKernels(t *testing.T, c kernelCase, rng *simrand.Rand) {
	t.Helper()
	m, k, n := c.m, c.k, c.n
	got, want := New(m, n), New(m, n)
	setAll(got, math.NaN()) // every element must be overwritten
	setAll(want, math.NaN())

	MatMulInto(got, c.a, c.b)
	oracleMatMulRows(want.data, c.a.data, c.b.data, 0, m, k, n)
	sameBits(t, c.name+" MatMulInto", got.data, want.data)

	setAll(got, math.NaN())
	MatMulTransAInto(got, c.at, c.b)
	oracleTransA(want, c.at, c.b)
	sameBits(t, c.name+" MatMulTransAInto", got.data, want.data)

	setAll(got, math.NaN())
	MatMulTransBInto(got, c.a, c.bt)
	oracleTransB(want.data, c.a.data, c.bt.data, 0, m, k, n)
	sameBits(t, c.name+" MatMulTransBInto", got.data, want.data)
	if !c.hostile {
		matMulTransBRows(want.data, c.a.data, c.bt.data, 0, m, k, n)
		sameBits(t, c.name+" MatMulTransBInto against the non-skipping kernel", got.data, want.data)
	}

	// Aᵀ·B written over a dst holding −0, +0 and non-zero values: every
	// element is overwritten, and an all-zero product row reads +0, which is
	// what clearing a gradient and adding the product into it left.
	for i := range got.data {
		v := rng.Uniform(-1, 1)
		switch i % 3 {
		case 0:
			v = math.Copysign(0, -1)
		case 1:
			v = 0
		}
		got.data[i] = v
	}
	writeMatMulTransA(got, c.at, c.b)
	oracleTransA(want, c.at, c.b)
	sameBits(t, c.name+" MatMulTransARowsInto", got.data, want.data)
}

// TestAddMatMulTransAZeroProductRow pins MatMulTransARowsInto's rule for a
// row the product leaves all zeros (the name is from when the kernel added
// the product into the gradient): column 1 of A is all zeros, so row 1 of
// dst is written +0 over its −0s, as a cleared row plus a zero product read.
func TestAddMatMulTransAZeroProductRow(t *testing.T) {
	a := mat(2, 2, 1, 0, 2, 0) // k=2, m=2
	b := mat(2, 2, 3, 4, 5, 6)
	negZero := math.Copysign(0, -1)
	dst := mat(2, 2, negZero, 1, negZero, negZero)
	writeMatMulTransA(dst, a, b)
	sameBits(t, "dst", dst.data, []float64{13, 16, 0, 0})
}

// TestAddMatMulTransAWideRows runs MatMulTransARowsInto's product rows, wider
// than any layer's, through several 32-column strips, a 4-lane strip and the
// scalar tail.
func TestAddMatMulTransAWideRows(t *testing.T) {
	rng := simrand.New(3)
	c := newKernelCase(3, 5, 8*gatherStrip+7, 0.5, false, rng)
	got, want := New(c.m, c.n), New(c.m, c.n)
	setAll(got, 0.25)
	writeMatMulTransA(got, c.at, c.b)
	oracleTransA(want, c.at, c.b)
	sameBits(t, "wide", got.data, want.data)
}
