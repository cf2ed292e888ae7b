package tensor

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"lbchat/internal/simrand"
)

// The elementwise kernels against their generic loops, in one binary: the
// wrapper (packed on an AVX2 amd64 CPU, the generic loop itself elsewhere)
// and the *Generic function by name, on the same operands.

var (
	negZero    = math.Copysign(0, -1)
	denormal   = math.SmallestNonzeroFloat64
	minNormal  = 0x1p-1022
	sqrtDenorm = 1e-160 // squares to a denormal

	// kernelLens hits n = 0, every tail length beside zero to two whole
	// vectors, and the policy's widths with their neighbours.
	kernelLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 63, 64, 65, 771}

	// specials are the operand values where a reassociated, fused or
	// flushed-to-zero kernel would show.
	specials = []float64{
		0, negZero, 1, -1, math.Inf(1), math.Inf(-1), math.NaN(),
		denormal, -denormal, minNormal, -minNormal / 2, sqrtDenorm, -sqrtDenorm,
		math.MaxFloat64, -math.MaxFloat64, 0x1p53 + 2, 1 + 0x1p-52,
	}
)

// specialOrUniform draws a special half the time.
func specialOrUniform(rng *simrand.Rand) float64 {
	if rng.Bernoulli(0.5) {
		return specials[rng.Intn(len(specials))]
	}
	return rng.Uniform(-2, 2)
}

// offsetSlice returns n elements that start off elements (0–3) past a 32-byte
// boundary, filled by draw. The packed kernels use unaligned loads and stores
// throughout and must not care.
func offsetSlice(n, off int, draw func() float64) []float64 {
	buf := make([]float64, n+8)
	start := 0
	for uintptr(unsafe.Pointer(&buf[start]))%32 != 0 {
		start++
	}
	s := buf[start+off : start+off+n : start+off+n]
	for i := range s {
		s[i] = draw()
	}
	return s
}

// operands holds the slices of one kernel call twice over: got for the
// wrapper, want for the generic loop.
type operands struct{ got, want [][]float64 }

// newOperands draws count slices of length n, operand i starting (off+i)%4
// elements past a 32-byte boundary.
func newOperands(count, n, off int, draw func() float64) operands {
	var o operands
	for i := 0; i < count; i++ {
		s := offsetSlice(n, (off+i)%4, draw)
		o.got = append(o.got, s)
		o.want = append(o.want, append([]float64(nil), s...))
	}
	return o
}

func (o operands) compare(t *testing.T, what string) {
	t.Helper()
	for i := range o.want {
		sameBits(t, fmt.Sprintf("%s operand %d", what, i), o.got[i], o.want[i])
	}
}

func TestPackedKernelsMatchGenericBits(t *testing.T) {
	rng := simrand.New(23)
	draw := func() float64 { return specialOrUniform(rng) }
	for _, n := range kernelLens {
		for off := 0; off < 4; off++ {
			for rep := 0; rep < 8; rep++ {
				what := fmt.Sprintf("n=%d off=%d rep=%d", n, off, rep)
				a0, a1, a2, a3 := draw(), draw(), draw(), draw()

				o := newOperands(5, n, off, draw)
				axpy4(o.got[0], o.got[1], o.got[2], o.got[3], o.got[4], a0, a1, a2, a3)
				axpy4Generic(o.want[0], o.want[1], o.want[2], o.want[3], o.want[4], a0, a1, a2, a3)
				o.compare(t, "axpy4 "+what)

				o = newOperands(4, n, off, draw)
				axpy3(o.got[0], o.got[1], o.got[2], o.got[3], a0, a1, a2)
				axpy3Generic(o.want[0], o.want[1], o.want[2], o.want[3], a0, a1, a2)
				o.compare(t, "axpy3 "+what)

				o = newOperands(3, n, off, draw)
				axpy2(o.got[0], o.got[1], o.got[2], a0, a1)
				axpy2Generic(o.want[0], o.want[1], o.want[2], a0, a1)
				o.compare(t, "axpy2 "+what)

				o = newOperands(2, n, off, draw)
				axpy1(o.got[0], o.got[1], a0)
				axpy1Generic(o.want[0], o.want[1], a0)
				o.compare(t, "axpy1 "+what)

				o = newOperands(2, n, off, draw)
				addRow(o.got[0], o.got[1])
				addRowGeneric(o.want[0], o.want[1])
				o.compare(t, "addRow "+what)

				o = newOperands(1, n, off, draw)
				scale(o.got[0], a0)
				scaleGeneric(o.want[0], a0)
				o.compare(t, "scale "+what)

				// Adam: hostile values everywhere on odd reps; on even ones
				// moments a real run can hold (v ≥ 0, down to denormal) under
				// the default coefficients.
				k := AdamCoef{Decay: a0, Beta1: a1, OneMinusBeta1: 1 - a1, Beta2: a2, OneMinusBeta2: 1 - a2,
					BiasCorr1: a3, BiasCorr2: draw(), LR: draw(), Eps: draw()}
				o = newOperands(4, n, off, draw)
				if rep%2 == 0 {
					k = AdamCoef{Decay: 0.01 * float64(rep%4), Beta1: 0.9, OneMinusBeta1: 1 - 0.9, Beta2: 0.999, OneMinusBeta2: 1 - 0.999,
						BiasCorr1: 1 - math.Pow(0.9, float64(rep+1)), BiasCorr2: 1 - math.Pow(0.999, float64(rep+1)), LR: 1e-3, Eps: 1e-8}
					for i, v := range o.got[3] {
						if v = math.Abs(v); math.IsNaN(v) {
							v = denormal
						}
						o.got[3][i], o.want[3][i] = v, v
					}
				}
				AdamUpdate(o.got[0], o.got[1], o.got[2], o.got[3], &k)
				adamUpdateGeneric(o.want[0], o.want[1], o.want[2], o.want[3], &k)
				o.compare(t, "AdamUpdate "+what)
			}
		}
	}
}

// TestAddRowSignedZero pins the row rule of AddMatMulTransA on the kernel
// itself, in every lane and in the scalar tail: −0 + +0 = +0, −0 + −0 = −0.
func TestAddRowSignedZero(t *testing.T) {
	dst := []float64{negZero, negZero, negZero, negZero, negZero, negZero, negZero}
	src := []float64{0, negZero, 0, negZero, 0, negZero, 0}
	addRow(dst, src)
	sameBits(t, "addRow", dst, []float64{0, negZero, 0, negZero, 0, negZero, 0})
}

// TestShortOperandPanicsInGo: the assembly trusts its count, so a short
// operand has to be caught by the wrapper's reslice — a Go slice-bounds panic
// raised before the first store.
func TestShortOperandPanicsInGo(t *testing.T) {
	const n = 9
	ones := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = 1
		}
		return s
	}
	k := AdamCoef{Beta1: 0.9, OneMinusBeta1: 0.1, Beta2: 0.999, OneMinusBeta2: 0.001, BiasCorr1: 0.1, BiasCorr2: 0.001, LR: 1e-3, Eps: 1e-8}
	// Operand 0 sets the length; each of the others in turn is one element
	// short of it.
	cases := []struct {
		name  string
		count int // operands
		call  func(o [][]float64)
	}{
		{"axpy4", 5, func(o [][]float64) { axpy4(o[0], o[1], o[2], o[3], o[4], 2, 3, 4, 5) }},
		{"axpy3", 4, func(o [][]float64) { axpy3(o[0], o[1], o[2], o[3], 2, 3, 4) }},
		{"axpy2", 3, func(o [][]float64) { axpy2(o[0], o[1], o[2], 2, 3) }},
		{"axpy1", 2, func(o [][]float64) { axpy1(o[0], o[1], 2) }},
		{"addRow", 2, func(o [][]float64) { addRow(o[1], o[0]) }}, // src sets the length
		{"AdamUpdate", 4, func(o [][]float64) { AdamUpdate(o[0], o[1], o[2], o[3], &k) }},
	}
	for _, c := range cases {
		for short := 1; short < c.count; short++ {
			t.Run(fmt.Sprintf("%s/operand%d", c.name, short), func(t *testing.T) {
				o := make([][]float64, c.count)
				for i := range o {
					o[i] = ones(n)
				}
				o[short] = o[short][: n-1 : n-1]
				defer func() {
					err, ok := recover().(runtime.Error)
					if !ok || !strings.Contains(err.Error(), "out of range") {
						t.Fatalf("recovered %v, want a slice-bounds runtime error", err)
					}
					for i := range o {
						for j, v := range o[i] {
							if v != 1 {
								t.Fatalf("operand %d[%d] = %v: written before the panic", i, j, v)
							}
						}
					}
				}()
				c.call(o)
				t.Fatal("no panic")
			})
		}
	}
}
