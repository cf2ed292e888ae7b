package compress

import (
	"math"
	"testing"

	"lbchat/internal/simrand"
)

func TestQuantizeRoundTripBounds(t *testing.T) {
	rng := simrand.New(1)
	flat := []float64{-2, -0.5, 0, 0.3, 1.7}
	q, err := Quantize(flat, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	got := q.Dense()
	step := (q.Hi - q.Lo) / 255
	for i := range flat {
		if math.Abs(got[i]-flat[i]) > step {
			t.Errorf("[%d] error %v exceeds one step %v", i, got[i]-flat[i], step)
		}
	}
}

func TestQuantizeUnbiased(t *testing.T) {
	// Stochastic rounding: the mean reconstruction over many draws
	// approaches the true value.
	rng := simrand.New(2)
	const v = 0.3337
	flat := []float64{0, v, 1} // fixed range [0,1]
	var acc float64
	const trials = 3000
	for i := 0; i < trials; i++ {
		q, err := Quantize(flat, 3, rng) // coarse: 7 levels
		if err != nil {
			t.Fatal(err)
		}
		acc += q.Dense()[1]
	}
	mean := acc / trials
	if math.Abs(mean-v) > 0.01 {
		t.Errorf("mean reconstruction %v, want ≈%v (unbiased)", mean, v)
	}
}

func TestQuantizeMoreBitsLessError(t *testing.T) {
	rng := simrand.New(3)
	flat := make([]float64, 500)
	for i := range flat {
		flat[i] = rng.Normal(0, 1)
	}
	errAt := func(bits int) float64 {
		q, err := Quantize(flat, bits, simrand.New(7))
		if err != nil {
			t.Fatal(err)
		}
		var acc float64
		for i, v := range q.Dense() {
			acc += (v - flat[i]) * (v - flat[i])
		}
		return acc
	}
	if e4, e8 := errAt(4), errAt(8); e8 >= e4 {
		t.Errorf("8-bit error %v not below 4-bit error %v", e8, e4)
	}
}

func TestQuantizeEdgeCases(t *testing.T) {
	rng := simrand.New(4)
	if _, err := Quantize(nil, 8, rng); err != nil {
		t.Errorf("empty vector: %v", err)
	}
	q, err := Quantize([]float64{5, 5, 5}, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range q.Dense() {
		if v != 5 {
			t.Errorf("constant vector reconstructed as %v", v)
		}
	}
	if _, err := Quantize([]float64{1}, 0, rng); err == nil {
		t.Error("0-bit width accepted")
	}
	if _, err := Quantize([]float64{1}, 17, rng); err == nil {
		t.Error("17-bit width accepted")
	}
}
