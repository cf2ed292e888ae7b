package compress

import (
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
