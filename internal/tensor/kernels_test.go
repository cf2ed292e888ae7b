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

				checkGather(t, rng, n, off, what)
				checkScreens(t, rng, n, off, what)

				o := newOperands(2, n, off, draw)
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
				sumSq := draw()
				if rep%2 == 0 {
					sumSq = math.Abs(a1)
				}
				gotSum := AdamUpdate(o.got[0], o.got[1], o.got[2], o.got[3], &k, sumSq)
				wantSum := adamUpdateGeneric(o.want[0], o.want[1], o.want[2], o.want[3], &k, sumSq)
				o.compare(t, "AdamUpdate "+what)
				sameBits(t, "AdamUpdate sum "+what, []float64{gotSum}, []float64{wantSum})

				// The blend: thresholds drawn from the deltas themselves make
				// ties, which the packed path hands to the scalar rule.
				o = newOperands(3, n, off, draw)
				thr := a0
				if n > 0 && rep%2 == 0 {
					thr = math.Abs(o.got[2][rng.Intn(n)])
				}
				ties := rng.Intn(3)
				AddKept(o.got[0], o.got[1], o.got[2], thr, ties)
				addKeptGeneric(o.want[0], o.want[1], o.want[2], thr, ties)
				o.compare(t, fmt.Sprintf("AddKept thr=%v ties=%d %s", thr, ties, what))

				decay := a0
				if rep%4 == 0 {
					decay = 0
				}
				o = newOperands(2, n, off, draw)
				gotSum = DecaySumSquares(o.got[0], o.got[1], decay)
				wantSum = decaySumSquaresGeneric(o.want[0], o.want[1], decay)
				o.compare(t, "DecaySumSquares "+what)
				sameBits(t, "DecaySumSquares sum "+what, []float64{gotSum}, []float64{wantSum})
			}
		}
	}
}

// TestAddKeptTies pins the tie rule on runs of equal magnitudes that cross
// vector boundaries: the first ties entries at the threshold are kept, in
// index order, whichever sign they carry, and nothing at it after them.
func TestAddKeptTies(t *testing.T) {
	const n = 23
	delta := make([]float64, n)
	base := make([]float64, n)
	for i := range delta {
		delta[i] = 0.5
		if i%3 == 0 {
			delta[i] = -0.5
		}
		if i%5 == 0 {
			delta[i] = 2
		}
		base[i] = float64(i)
	}
	for ties := 0; ties <= n; ties++ {
		dst := make([]float64, n)
		AddKept(dst, base, delta, 0.5, ties)
		left := ties
		for i, d := range delta {
			want := base[i]
			if math.Abs(d) > 0.5 || left > 0 {
				if math.Abs(d) == 0.5 {
					left--
				}
				want += d
			}
			if dst[i] != want {
				t.Fatalf("ties=%d: dst[%d] = %v, want %v", ties, i, dst[i], want)
			}
		}
	}
}

// TestAddRowSignedZero pins the row rule of a bias add on the kernel itself,
// in every lane and in the scalar tail: −0 + +0 = +0, −0 + −0 = −0; and the
// same rule on the gather's += form, whose sum starts at +0: a row no
// survivor reaches turns −0 into +0 in the wide strip, the 4-lane strips
// and the scalar tail alike.
func TestAddRowSignedZero(t *testing.T) {
	dst := []float64{negZero, negZero, negZero, negZero, negZero, negZero, negZero}
	src := []float64{0, negZero, 0, negZero, 0, negZero, 0}
	addRow(dst, src)
	sameBits(t, "addRow", dst, []float64{0, negZero, 0, negZero, 0, negZero, 0})

	const n = 32 + 4 + 3
	c := make([]float64, n)
	for j := range c {
		c[j] = negZero
	}
	gather(c, make([]float64, n), nil, nil, true)
	sameBits(t, "gather +=", c, make([]float64, n))
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
		{"addRow", 2, func(o [][]float64) { addRow(o[1], o[0]) }}, // src sets the length
		{"AdamUpdate", 4, func(o [][]float64) { AdamUpdate(o[0], o[1], o[2], o[3], &k, 0) }},
		{"AddKept", 3, func(o [][]float64) { AddKept(o[1], o[2], o[0], 0.5, 1) }}, // delta sets the length
		{"DecaySumSquares", 2, func(o [][]float64) { DecaySumSquares(o[0], o[1], 0.5) }},
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

// gatherCase draws a k×n B, a survivor list of up to k+2 rows of it (repeats
// and any order allowed: the kernels take the list as given) and a c, all
// from draw, c and B starting off elements past a 32-byte boundary.
func gatherCase(rng *simrand.Rand, n, off int, draw func() float64) (c, bd []float64, idx []int32, val []float64) {
	k := 1 + rng.Intn(9)
	bd = offsetSlice(k*n, (off+1)%4, draw)
	cnt := rng.Intn(k + 3)
	for q := 0; q < cnt; q++ {
		idx = append(idx, int32(rng.Intn(k)))
		val = append(val, draw())
	}
	return offsetSlice(n, off, draw), bd, idx, val
}

// checkGather runs the gather and its generic loop on the same operands, in
// the store and the += form.
func checkGather(t *testing.T, rng *simrand.Rand, n, off int, what string) {
	t.Helper()
	draw := func() float64 { return specialOrUniform(rng) }
	for _, add := range []bool{false, true} {
		c, bd, idx, val := gatherCase(rng, n, off, draw)
		want := append([]float64(nil), c...)
		gather(c, bd, idx, val, add)
		gatherGeneric(want, bd, idx, val, add)
		sameBits(t, fmt.Sprintf("gather add=%v %s", add, what), c, want)
	}
}

// sparseDraw returns ±0 two times in three, else a special or a uniform.
func sparseDraw(rng *simrand.Rand) float64 {
	switch rng.Intn(6) {
	case 0, 1:
		return 0
	case 2, 3:
		return negZero
	}
	return specialOrUniform(rng)
}

// checkScreens runs the float screen, the byte screen and the byte count
// against their generic loops: the same count, indices and value bits. The
// byte screen gets exactly the room its contract asks for.
func checkScreens(t *testing.T, rng *simrand.Rand, n, off int, what string) {
	t.Helper()
	a := offsetSlice(n, off, func() float64 { return sparseDraw(rng) })
	gi, gv := make([]int32, n), make([]float64, n)
	wi, wv := make([]int32, n), make([]float64, n)
	got, want := screen(gi, gv, a), screenGeneric(wi, wv, a, 0)
	sameList(t, "screen "+what, gi[:got], gv[:got], wi[:want], wv[:want])

	b := make([]uint8, n)
	for i := range b {
		if rng.Bernoulli(0.2) {
			b[i] = uint8(1 + rng.Intn(255))
		}
	}
	on := countBytesGeneric(b)
	if c := countBytes(b); c != on {
		t.Fatalf("countBytes %s = %d, generic %d", what, c, on)
	}
	room := min(n, on+3)
	gi, gv = make([]int32, room), make([]float64, room)
	got, want = screenBytes(gi, gv, b, on), screenBytesGeneric(wi, wv, b, 0)
	sameList(t, "screenBytes "+what, gi[:got], gv[:got], wi[:want], wv[:want])
}

func sameList(t *testing.T, what string, gi []int32, gv []float64, wi []int32, wv []float64) {
	t.Helper()
	if len(gi) != len(wi) {
		t.Fatalf("%s: %d survivors, generic %d", what, len(gi), len(wi))
	}
	for q := range wi {
		if gi[q] != wi[q] {
			t.Fatalf("%s: survivor %d is index %d, generic %d", what, q, gi[q], wi[q])
		}
	}
	sameBits(t, what, gv, wv)
}
