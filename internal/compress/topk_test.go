package compress

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestTopKSelectsLargestMagnitudes(t *testing.T) {
	flat := []float64{0.1, -5, 3, 0, -0.2, 4}
	sp := TopK(flat, 3)
	if sp.K() != 3 {
		t.Fatalf("K = %d", sp.K())
	}
	want := map[int]float64{1: -5, 5: 4, 2: 3}
	for i, idx := range sp.Indices {
		if v, ok := want[idx]; !ok || v != sp.Values[i] {
			t.Errorf("kept (%d, %v), want one of %v", idx, sp.Values[i], want)
		}
	}
}

func TestTopKIndicesSorted(t *testing.T) {
	flat := []float64{9, -8, 7, -6, 5}
	sp := TopK(flat, 4)
	if !sort.IntsAreSorted(sp.Indices) {
		t.Errorf("indices not sorted: %v", sp.Indices)
	}
}

func TestTopKEdgeCases(t *testing.T) {
	flat := []float64{1, 2, 3}
	if sp := TopK(flat, 0); sp.K() != 0 || sp.Len != 3 {
		t.Error("k=0 broken")
	}
	if sp := TopK(flat, 99); sp.K() != 3 {
		t.Error("k>n not clamped")
	}
	if sp := TopK(flat, -1); sp.K() != 0 {
		t.Error("negative k not clamped")
	}
	if sp := TopK(nil, 1); sp.K() != 0 || sp.Len != 0 {
		t.Error("empty input broken")
	}
}

func TestTopKTies(t *testing.T) {
	flat := []float64{1, 1, 1, 1}
	sp := TopK(flat, 2)
	if sp.K() != 2 {
		t.Fatalf("tie handling kept %d", sp.K())
	}
}

func TestDenseRoundTrip(t *testing.T) {
	flat := []float64{0.5, -2, 0, 3}
	sp := TopK(flat, 4)
	got := sp.Dense()
	for i := range flat {
		if got[i] != flat[i] {
			t.Fatalf("full-k dense differs at %d", i)
		}
	}
	sp = TopK(flat, 2)
	got = sp.Dense()
	want := []float64{0, -2, 0, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("dense[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestApplyAsUpdate(t *testing.T) {
	flat := []float64{10, -20, 30}
	sp := TopK(flat, 1) // keeps index 2 (30)
	base := []float64{1, 2, 3}
	got, err := sp.ApplyAsUpdate(base)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if base[2] != 3 {
		t.Error("ApplyAsUpdate mutated base")
	}
	if _, err := sp.ApplyAsUpdate([]float64{1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestApplyAsUpdateRejectsMalformed(t *testing.T) {
	base := []float64{1, 2, 3, 4}
	for _, tc := range []struct {
		name    string
		indices []int
		values  []float64
	}{
		{"negative index", []int{-1, 2}, []float64{5, 6}},
		{"index at Len", []int{1, 4}, []float64{5, 6}},
		{"index past Len", []int{9}, []float64{5}},
		{"fewer values than indices", []int{0, 2}, []float64{5}},
		{"more values than indices", []int{0}, []float64{5, 6}},
		{"duplicate index", []int{1, 1}, []float64{5, 6}},
		{"descending indices", []int{2, 0}, []float64{5, 6}},
	} {
		sp := &Sparse{Len: len(base), Indices: tc.indices, Values: tc.values}
		if got, err := sp.ApplyAsUpdate(base); err == nil {
			t.Errorf("%s: accepted, got %v", tc.name, got)
		}
	}
}

// FuzzSparseApply feeds ApplyAsUpdate arbitrary sparse models: Len, the
// indices (one signed byte each), the values and the base (eight bytes each).
// It must not panic; it must accept exactly the well-formed ones (values
// parallel to strictly increasing indices in [0, Len), a base of Len); an
// accepted one must return its values at the kept positions and the base's
// bits elsewhere; and the base must come back unmodified. The base doubles as
// a dense vector for TopK(base, k), whose ApplyAsUpdate onto zeros must be
// its Dense() bit for bit.
func FuzzSparseApply(f *testing.F) {
	floats := func(vals ...float64) []byte {
		raw := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		return raw
	}
	f.Add(0, []byte{}, []byte{}, []byte{}, 0)
	f.Add(3, []byte{0, 2}, floats(5, -6), floats(1, 2, 3), 1)
	f.Add(4, []byte{1, 1}, floats(5, 6), floats(1, 2, 3, 4), 2)
	f.Add(4, []byte{0xFF, 2}, floats(5, 6), floats(1, 2, 3, 4), 4)
	f.Add(2, []byte{0, 1}, floats(5), floats(1, 2), 9)
	f.Add(5, []byte{0, 3, 4}, floats(math.NaN(), math.Copysign(0, -1), math.Inf(-1)),
		floats(math.Inf(1), 0, math.NaN(), 5e-324, -1e300), 3)
	f.Fuzz(func(t *testing.T, n int, idx, vals, rawBase []byte, k int) {
		s := &Sparse{Len: n}
		for _, b := range idx {
			s.Indices = append(s.Indices, int(int8(b)))
		}
		for ; len(vals) >= 8; vals = vals[8:] {
			s.Values = append(s.Values, math.Float64frombits(binary.LittleEndian.Uint64(vals)))
		}
		var base []float64
		for ; len(rawBase) >= 8; rawBase = rawBase[8:] {
			base = append(base, math.Float64frombits(binary.LittleEndian.Uint64(rawBase)))
		}
		baseBits := make([]uint64, len(base))
		for i, v := range base {
			baseBits[i] = math.Float64bits(v)
		}
		wellFormed := len(base) == s.Len && len(s.Values) == len(s.Indices)
		for i, j := range s.Indices {
			if j < 0 || j >= s.Len || i > 0 && j <= s.Indices[i-1] {
				wellFormed = false
			}
		}

		out, err := s.ApplyAsUpdate(base)
		for i, v := range base {
			if math.Float64bits(v) != baseBits[i] {
				t.Fatalf("base[%d] changed from %#x to %#x", i, baseBits[i], math.Float64bits(v))
			}
		}
		if (err == nil) != wellFormed {
			t.Fatalf("Len %d, indices %v, %d values, base of %d: error %v, well-formed %v",
				s.Len, s.Indices, len(s.Values), len(base), err, wellFormed)
		}
		if err == nil {
			want := append([]uint64(nil), baseBits...)
			for i, j := range s.Indices {
				want[j] = math.Float64bits(s.Values[i])
			}
			if len(out) != len(want) {
				t.Fatalf("%d values out for Len %d", len(out), s.Len)
			}
			for i, v := range out {
				if math.Float64bits(v) != want[i] {
					t.Fatalf("out[%d] = %#x, want %#x", i, math.Float64bits(v), want[i])
				}
			}
		}

		top := TopK(base, k)
		dense := top.Dense()
		applied, err := top.ApplyAsUpdate(make([]float64, len(base)))
		if err != nil {
			t.Fatalf("TopK(%d) of %d values does not apply: %v", k, len(base), err)
		}
		for i := range dense {
			if math.Float64bits(applied[i]) != math.Float64bits(dense[i]) {
				t.Fatalf("TopK(%d): ApplyAsUpdate(zeros)[%d] = %#x, Dense() %#x", k, i, math.Float64bits(applied[i]), math.Float64bits(dense[i]))
			}
		}
	})
}

func TestWireSizeMonotone(t *testing.T) {
	flat := make([]float64, 1000)
	for i := range flat {
		flat[i] = float64(i)
	}
	prev := -1
	for k := 0; k <= 1000; k += 100 {
		size := TopK(flat, k).WireSize()
		if size < prev {
			t.Fatalf("wire size not monotone at k=%d: %d < %d", k, size, prev)
		}
		prev = size
	}
	// Never more than dense + header.
	if full := TopK(flat, 1000).WireSize(); full > headerBytes+1000*valueBytes {
		t.Errorf("full-k wire size %d exceeds dense encoding", full)
	}
}

func TestKForPsiAndBack(t *testing.T) {
	n := 10000
	for _, psi := range []float64{0.01, 0.1, 0.5, 0.9} {
		k := KForPsi(n, psi)
		eff := float64(k*(indexBytes+valueBytes)) / float64(n*valueBytes)
		if math.Abs(eff-psi) > 0.01 {
			t.Errorf("psi %v → k %d → eff %v", psi, k, eff)
		}
	}
	if KForPsi(n, 0) != 0 || KForPsi(n, -1) != 0 {
		t.Error("non-positive psi should keep nothing")
	}
	if KForPsi(n, 1) != n || KForPsi(n, 2) != n {
		t.Error("psi ≥ 1 should keep everything")
	}
}

func TestCompressEnergyProperty(t *testing.T) {
	// The kept coordinates must carry at least as much L2 energy as any
	// other subset of equal size — in particular at least k/n of the total.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		flat := make([]float64, len(raw))
		var total float64
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 1
			}
			flat[i] = math.Mod(v, 1e3)
			total += flat[i] * flat[i]
		}
		k := len(flat)/2 + 1
		sp := TopK(flat, k)
		var kept float64
		for _, v := range sp.Values {
			kept += v * v
		}
		return kept+1e-9 >= total*float64(k)/float64(len(flat))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
