package model

import (
	"math"
	"strings"
	"testing"

	"lbchat/internal/dataset"
	"lbchat/internal/simrand"
)

func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.BEVHeight, cfg.BEVWidth = 6, 6
	cfg.Hidden = 16
	cfg.NumWaypoints = 2
	return cfg
}

// syntheticSet builds samples whose targets depend deterministically on the
// BEV content, speed, and command — learnable structure.
func syntheticSet(cfg Config, n int, rng *simrand.Rand) []dataset.Weighted {
	out := make([]dataset.Weighted, 0, n)
	for i := 0; i < n; i++ {
		bev := make([]uint8, cfg.BEVSize())
		ones := 0
		for j := range bev {
			if rng.Bernoulli(0.3) {
				bev[j] = 1
				ones++
			}
		}
		speed := rng.Float64()
		cmd := dataset.Command(rng.Intn(dataset.NumCommands) + 1)
		density := float64(ones) / float64(len(bev))
		targets := make([]float64, cfg.TargetSize())
		for k := range targets {
			targets[k] = 0.3*speed + 0.2*density + 0.05*float64(cmd.Index())
		}
		out = append(out, dataset.Weighted{
			Sample: dataset.Sample{BEV: bev, Command: cmd, Speed: speed, NavDist: 1, Targets: targets},
			Weight: 1,
		})
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Hidden = 0
	if bad.Validate() == nil {
		t.Error("zero hidden accepted")
	}
	bad = DefaultConfig()
	bad.LR = 0
	if bad.Validate() == nil {
		t.Error("zero LR accepted")
	}
	bad = DefaultConfig()
	bad.BEVHeight = -1
	if bad.Validate() == nil {
		t.Error("negative BEV accepted")
	}
	bad = DefaultConfig()
	bad.UseConv = true
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "item 25") {
		t.Errorf("UseConv = true: got %v, want an error naming item 25", err)
	}
}

func TestSameSeedSameInit(t *testing.T) {
	cfg := tinyConfig()
	a, err := New(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(cfg, 5)
	fa, fb := a.Flat(), b.Flat()
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatal("same seed produced different parameters")
		}
	}
	c, _ := New(cfg, 6)
	diff := 0
	for i, v := range c.Flat() {
		if v != fa[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical parameters")
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	cfg := tinyConfig()
	pol, err := New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(2)
	data := syntheticSet(cfg, 256, rng)
	before := pol.Loss(data)
	for step := 0; step < 300; step++ {
		batch := make([]dataset.Weighted, 16)
		for i := range batch {
			batch[i] = data[rng.Intn(len(data))]
		}
		pol.TrainStep(batch)
	}
	after := pol.Loss(data)
	t.Logf("loss %v -> %v", before, after)
	if after > before/2 {
		t.Errorf("training barely reduced loss: %v -> %v", before, after)
	}
}

func TestCloneIsIndependentCopy(t *testing.T) {
	cfg := tinyConfig()
	pol, _ := New(cfg, 1)
	rng := simrand.New(3)
	data := syntheticSet(cfg, 32, rng)
	cp := pol.Clone()
	if lossA, lossB := pol.Loss(data), cp.Loss(data); lossA != lossB {
		t.Errorf("clone loss differs: %v vs %v", lossA, lossB)
	}
	cp.TrainStep(data)
	if pol.Loss(data) != cp.Loss(data) {
		// Expected: training the clone must not affect the original.
		orig := pol.Flat()
		reclone := pol.Clone().Flat()
		for i := range orig {
			if orig[i] != reclone[i] {
				t.Fatal("training the clone mutated the original")
			}
		}
	} else {
		t.Error("training the clone had no effect")
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
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

// TestCloneMatchesNew pins Clone's contract: a Clone of New(cfg, s) is
// another New(cfg, s) — the same parameter bits and the same fresh
// optimizer, so it trains along the same trajectory — it shares no storage
// with its source, and a trained policy's clone starts over with a fresh
// optimizer.
func TestCloneMatchesNew(t *testing.T) {
	// The subtest keeps the name it had when a conv variant ran beside the
	// dense one; UseConv = false is the only architecture left.
	t.Run("UseConv=false", func(t *testing.T) {
		cfg := tinyConfig()
		src, err := New(cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _ := New(cfg, 7)
		srcFlat := src.Flat()
		cp := src.Clone()
		if !sameBits(cp.Flat(), fresh.Flat()) {
			t.Fatal("Clone of New(cfg, 7) differs from New(cfg, 7)")
		}
		data := syntheticSet(cfg, 32, simrand.New(8))
		for step := 0; step < 20; step++ {
			a, b := cp.TrainStep(data), fresh.TrainStep(data)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("step %d: clone loss %v, New loss %v", step, a, b)
			}
		}
		if !sameBits(cp.Flat(), fresh.Flat()) {
			t.Fatal("20 steps on the clone and on New(cfg, 7) end at different parameters")
		}
		if !sameBits(src.Flat(), srcFlat) {
			t.Fatal("training the clone moved its source")
		}

		// fresh has trained 20 steps; its clone must take the step of a policy
		// that has never stepped.
		again := fresh.Clone()
		loaded, _ := New(cfg, 99)
		if err := loaded.SetFlat(fresh.Flat()); err != nil {
			t.Fatal(err)
		}
		a, b := again.TrainStep(data), loaded.TrainStep(data)
		if math.Float64bits(a) != math.Float64bits(b) || !sameBits(again.Flat(), loaded.Flat()) {
			t.Fatal("a trained policy's clone does not step like a fresh policy loaded with its parameters")
		}
	})
}

func TestFlatSetFlatRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	pol, _ := New(cfg, 1)
	flat := pol.Flat()
	for i := range flat {
		flat[i] = float64(i%7) / 10
	}
	if err := pol.SetFlat(flat); err != nil {
		t.Fatal(err)
	}
	got := pol.Flat()
	for i := range flat {
		if got[i] != flat[i] {
			t.Fatal("round trip mismatch")
		}
	}
	if err := pol.SetFlat(flat[:5]); err == nil {
		t.Error("short vector accepted")
	}
}

func TestPredictUsesCommandHead(t *testing.T) {
	cfg := tinyConfig()
	pol, _ := New(cfg, 1)
	bev := make([]uint8, cfg.BEVSize())
	bev[3] = 1
	a := pol.Predict(bev, 0.5, 1, 1, dataset.CmdLeft)
	b := pol.Predict(bev, 0.5, 1, 1, dataset.CmdRight)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("different commands produced identical predictions")
	}
	if len(a) != cfg.TargetSize() {
		t.Errorf("prediction size = %d", len(a))
	}
}

func TestPredictDeterministic(t *testing.T) {
	cfg := tinyConfig()
	pol, _ := New(cfg, 1)
	bev := make([]uint8, cfg.BEVSize())
	a := pol.Predict(bev, 0.2, 0.8, 1, dataset.CmdFollow)
	b := pol.Predict(bev, 0.2, 0.8, 1, dataset.CmdFollow)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("prediction not deterministic")
		}
	}
}

// penalties returns Eq. (6)'s two penalty terms as Loss adds them to the
// weighted risk of the per-sample losses per: λ1·‖x‖ and 0.05·σ.
func penalties(pol *Policy, data []dataset.Weighted, per []float64) (l2, sigma float64) {
	weights := make([]float64, len(data))
	cmds := make([]dataset.Command, len(data))
	for i, it := range data {
		weights[i], cmds[i] = it.Weight, it.Sample.Command
	}
	return l2Penalty * pol.Params().L2Norm(), 0.05 * CommandImbalance(per, weights, cmds)
}

func TestPerSampleLossesMatchLoss(t *testing.T) {
	cfg := tinyConfig()
	pol, _ := New(cfg, 1)
	rng := simrand.New(4)
	data := syntheticSet(cfg, 64, rng)
	per := pol.PerSampleLosses(data)
	var mean float64
	for _, l := range per {
		mean += l
	}
	mean /= float64(len(per))
	l2, sigma := penalties(pol, data, per)
	if risk := pol.Loss(data) - l2 - sigma; math.Abs(risk-mean) > 1e-9 {
		t.Errorf("Loss less its penalties is %v, mean per-sample loss %v", risk, mean)
	}
}

func TestLossIncludesPenalties(t *testing.T) {
	cfg := tinyConfig()
	pol, _ := New(cfg, 1)
	rng := simrand.New(5)
	data := syntheticSet(cfg, 64, rng)
	per := pol.PerSampleLosses(data)
	var risk float64
	for _, l := range per {
		risk += l
	}
	risk /= float64(len(per))
	l2, sigma := penalties(pol, data, per)
	if l2 <= 0 || sigma <= 0 {
		t.Fatalf("penalty terms λ1·‖x‖ = %v, 0.05·σ = %v: want both positive on this set", l2, sigma)
	}
	if got, want := pol.Loss(data), risk+l2+sigma; math.Abs(got-want) > 1e-9 {
		t.Errorf("Eq.(6) loss %v, want risk %v + λ1·‖x‖ %v + 0.05·σ %v", got, risk, l2, sigma)
	}
}

func TestCommandImbalance(t *testing.T) {
	// Equal per-command losses → zero imbalance.
	per := []float64{1, 1, 1, 1}
	w := []float64{1, 1, 1, 1}
	cmds := []dataset.Command{dataset.CmdFollow, dataset.CmdLeft, dataset.CmdRight, dataset.CmdStraight}
	if got := CommandImbalance(per, w, cmds); math.Abs(got) > 1e-12 {
		t.Errorf("balanced imbalance = %v", got)
	}
	// Extremely skewed losses → positive imbalance.
	per = []float64{10, 0.001, 0.001, 0.001}
	if got := CommandImbalance(per, w, cmds); got < 0.5 {
		t.Errorf("skewed imbalance = %v", got)
	}
	// Single command: undefined, reported as zero.
	if got := CommandImbalance([]float64{5}, []float64{1}, cmds[:1]); got != 0 {
		t.Errorf("single-command imbalance = %v", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	cfg := tinyConfig()
	pol, _ := New(cfg, 1)
	if pol.TrainStep(nil) != 0 {
		t.Error("empty TrainStep should return 0")
	}
	if pol.Loss(nil) != 0 {
		t.Error("empty Loss should return 0")
	}
	if pol.PerSampleLosses(nil) != nil {
		t.Error("empty PerSampleLosses should return nil")
	}
}

// TestTrainStepReadsNormBeforeUpdate: the loss TrainStep returns is Eq. (6)
// on the parameters the step started from — its risk and σ from the batch's
// per-sample losses, and its λ1 term λ1·L2Norm() of the pre-update
// parameters — bit for bit, over 30 steps (one head idle in every third).
func TestTrainStepReadsNormBeforeUpdate(t *testing.T) {
	cfg, data := benchSet(96)
	pol, err := New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	var noRight []dataset.Weighted
	for _, it := range data {
		if it.Sample.Command != dataset.CmdRight {
			noRight = append(noRight, it)
		}
	}
	for step := 0; step < 30; step++ {
		batch := data[(step*16)%80:][:16]
		if step%3 == 2 {
			batch = noRight[:16]
		}
		weights := make([]float64, len(batch))
		cmds := make([]dataset.Command, len(batch))
		for i, it := range batch {
			weights[i], cmds[i] = it.Weight, it.Sample.Command
		}
		want := lossFromPerSample(pol.PerSampleLosses(batch), weights, cmds, pol.Params().L2Norm())
		before := pol.Params().L2Norm()
		if got := pol.TrainStep(batch); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: TrainStep returned %v, Eq. (6) on the pre-update parameters %v", step, got, want)
		}
		if after := pol.Params().L2Norm(); after == before {
			t.Fatalf("step %d: the norm did not move (%v), so the test cannot tell before from after", step, after)
		}
	}
}
