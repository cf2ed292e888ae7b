package core

import (
	"math"
	"runtime"
	"testing"

	"lbchat/internal/compress"
)

// trainedPair returns a tiny two-vehicle engine whose vehicles have both
// trained a little, so their deltas are non-zero and differ.
func trainedPair(t *testing.T) (*Engine, *Vehicle, *Vehicle) {
	t.Helper()
	eng, _ := tinyEnv(t, 2, true)
	va, vb := eng.Vehicles[0], eng.Vehicles[1]
	for i := 0; i < 6; i++ {
		va.Policy.TrainStep(va.Data.SampleBatch(8, va.RNG()))
		vb.Policy.TrainStep(vb.Data.SampleBatch(8, vb.RNG()))
	}
	return eng, va, vb
}

// referenceReconstruction is x_init + topk(flat − x_init) spelled out the way
// the engine did before it had a plan: a fresh delta, the one-shot
// compress.TopK (itself pinned to the sort oracle in its package), and a
// scatter-add onto a copy of the initialization. The kept count is the
// ψ^(1/3) calibration written out independently.
func referenceReconstruction(e *Engine, flat []float64, psi float64) []float64 {
	delta := make([]float64, len(flat))
	for i, v := range flat {
		delta[i] = v - e.initFlat[i]
	}
	keep := psi
	if psi > 0 && psi < 1 {
		keep = math.Pow(psi, 1.0/3)
	}
	return scatterOnInit(e, compress.TopK(delta, int(keep*float64(len(delta)))))
}

// scatterOnInit materializes a model from a sparsified delta the way a
// receiver does: x̂ = x_init + sparse(Δ).
func scatterOnInit(e *Engine, sp *compress.Sparse) []float64 {
	out := append([]float64(nil), e.initFlat...)
	for i, idx := range sp.Indices {
		out[idx] += sp.Values[i]
	}
	return out
}

func bitEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestDeltaPlanMatchesCompressDelta(t *testing.T) {
	eng, va, vb := trainedPair(t)
	flatA, flatB := va.Policy.Flat(), vb.Policy.Flat()
	// The φ-fit levels, the two ends, and a sweep from a tenth of the
	// coordinates kept (ψ = 0.001) to nearly all of them.
	levels := append([]float64{0, 1, 0.001, 0.01, 0.3, 0.7, 0.99}, eng.Cfg.PsiSamples...)
	for _, psi := range levels {
		wantA := referenceReconstruction(eng, flatA, psi)
		wantB := referenceReconstruction(eng, flatB, psi)
		if psi > 0 && psi < 1 && bitEqual(wantA, wantB) {
			t.Fatalf("ψ=%v: the two models reconstruct alike; the leak check below is vacuous", psi)
		}
		if got := scatterOnInit(eng, eng.CompressDelta(flatA, psi)); !bitEqual(got, wantA) {
			t.Errorf("ψ=%v: CompressDelta scattered on the init differs from the reference", psi)
		}
		if got := eng.CompressReconstruct(flatA, psi); psi > 0 && !bitEqual(got, wantA) {
			t.Errorf("ψ=%v: CompressReconstruct differs from the reference", psi)
		}
		// One plan, filled for A, cut, then refilled for B: B's cut must
		// carry nothing of A's.
		plan := eng.fillPlan(1, flatA)
		if got := plan.Reconstruct(eng.keepCount(psi)); !bitEqual(got, wantA) {
			t.Errorf("ψ=%v: plan reconstruction differs from the reference", psi)
		}
		plan = eng.fillPlan(1, flatB)
		if got := plan.Reconstruct(eng.keepCount(psi)); !bitEqual(got, wantB) {
			t.Errorf("ψ=%v: refilled plan reconstruction differs from the second model's reference", psi)
		}
	}
}

// allocatedBytes is the least heap f allocated over a few calls; the minimum
// discards a stray allocation by the runtime's own goroutines.
func allocatedBytes(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < least {
			least = d
		}
	}
	return least
}

// TestChatPathAllocations pins the plan's point: with the engine's plan warm,
// fitting φ allocates no parameter-sized vector however many ψ levels it
// samples, and sending a model allocates exactly the one reconstruction the
// scheduled merge keeps. The evaluation set is empty so that Policy.Loss,
// whose buffers are not this path's, allocates nothing.
func TestChatPathAllocations(t *testing.T) {
	eng, va, vb := trainedPair(t)
	l := NewLbChat()
	if err := l.Setup(eng); err != nil {
		t.Fatal(err)
	}
	vector := uint64(8 * len(eng.initFlat))
	plan := eng.fillPlan(0, va.Policy.Flat())

	short := eng.Cfg.PsiSamples
	var long []float64
	for i := 1; i <= 8*len(short); i++ {
		long = append(long, float64(i)/float64(8*len(short)))
	}
	perSamples := map[int]float64{}
	for _, samples := range [][]float64{short, long} {
		eng.Cfg.PsiSamples = samples
		fit := func() { l.fitPhi(eng, va, plan, nil) }
		if b := allocatedBytes(fit); b >= vector/4 {
			t.Errorf("fitPhi over %d ψ samples allocated %d bytes; a parameter vector is %d", len(samples), b, vector)
		}
		perSamples[len(samples)] = testing.AllocsPerRun(5, fit)
	}
	// The only growth allowed is FitPhi's own appends over the sample list.
	if perSamples[len(long)] > perSamples[len(short)]+16 {
		t.Errorf("fitPhi allocations grow with the sample count: %v", perSamples)
	}

	send := func() { l.sendModel(eng, plan, va, vb, 0.5, 10) }
	if b := allocatedBytes(send); b < vector || b >= vector+vector/4 {
		t.Errorf("sendModel allocated %d bytes, want one parameter vector (%d)", b, vector)
	}
	if n := testing.AllocsPerRun(5, send); n > 4 {
		t.Errorf("sendModel made %v allocations, want the reconstruction and O(1) small ones", n)
	}
}

// TestFitPhiScoresTheShippedPayload holds the φ fit to the payload sendModel
// ships. Under top-k its samples are exactly the plan's cut at keepCount(ψ),
// and the policy itself at ψ = 1, bit for bit; under quantization every
// sub-unit sample scores the quantized payload, so it differs from top-k's.
func TestFitPhiScoresTheShippedPayload(t *testing.T) {
	eng, va, _ := trainedPair(t)
	l := NewLbChat()
	if err := l.Setup(eng); err != nil {
		t.Fatal(err)
	}
	eval := va.Data.Items()[:32]
	plan := eng.fillPlan(0, va.Policy.Flat())
	ref := va.Policy.Clone()

	_, psis, topk := l.fitPhi(eng, va, plan, eval)
	if len(psis) != len(eng.Cfg.PsiSamples) {
		t.Fatalf("top-k fit kept %d of %d samples", len(psis), len(eng.Cfg.PsiSamples))
	}
	for i, psi := range psis {
		want := va.Policy.Loss(eval)
		if psi < 1 {
			if err := ref.SetFlat(plan.Reconstruct(eng.keepCount(psi))); err != nil {
				t.Fatal(err)
			}
			want = ref.Loss(eval)
		}
		if math.Float64bits(topk[i]) != math.Float64bits(want) {
			t.Errorf("top-k ψ=%v: fitPhi scored %v, the plan's cut scores %v", psi, topk[i], want)
		}
	}

	eng.Cfg.CompressionScheme = SchemeQuantize
	_, qpsis, quant := l.fitPhi(eng, va, plan, eval)
	if len(qpsis) != len(psis) {
		t.Fatalf("quantized fit kept %d of %d samples", len(qpsis), len(psis))
	}
	for i, psi := range qpsis {
		if psi < 1 && quant[i] == topk[i] {
			t.Errorf("quantized ψ=%v scored %v, the top-k payload's loss", psi, quant[i])
		}
	}
}
