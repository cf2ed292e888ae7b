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
	if len(sp.Indices) != 3 {
		t.Fatalf("K = %d", len(sp.Indices))
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
	if sp := TopK(flat, 0); len(sp.Indices) != 0 || sp.Len != 3 {
		t.Error("k=0 broken")
	}
	if sp := TopK(flat, 99); len(sp.Indices) != 3 {
		t.Error("k>n not clamped")
	}
	if sp := TopK(flat, -1); len(sp.Indices) != 0 {
		t.Error("negative k not clamped")
	}
	if sp := TopK(nil, 1); len(sp.Indices) != 0 || sp.Len != 0 {
		t.Error("empty input broken")
	}
}

func TestTopKTies(t *testing.T) {
	flat := []float64{1, 1, 1, 1}
	sp := TopK(flat, 2)
	if len(sp.Indices) != 2 {
		t.Fatalf("tie handling kept %d", len(sp.Indices))
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
