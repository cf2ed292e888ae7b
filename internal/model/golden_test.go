package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"math"
	"os"
	"runtime"
	"testing"

	"lbchat/internal/dataset"
	"lbchat/internal/simrand"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_model.json from this tree's output")

const goldenModelPath = "testdata/golden_model.json"

// hashFloats folds the exact bit patterns of vals into h.
func hashFloats(h hash.Hash, vals ...float64) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// sparseSet builds n weighted samples shaped like the frames the fleet really
// trains on: about 80 % of the uint8 BEV cells are zero and the rest hold
// 1–3 (the rasterizer stacks layers, so values above one occur), the three
// scalar inputs are uniform, the commands are drawn from cmds, the targets
// are a learnable function of the input plus noise, and the weights are
// coreset-like (not all one).
func sparseSet(cfg Config, n int, rng *simrand.Rand, cmds ...dataset.Command) []dataset.Weighted {
	out := make([]dataset.Weighted, n)
	for i := range out {
		bev := make([]uint8, cfg.BEVSize())
		filled := 0
		for j := range bev {
			if rng.Bernoulli(0.2) {
				bev[j] = uint8(1 + rng.Intn(3))
				filled++
			}
		}
		s := dataset.Sample{
			BEV:     bev,
			Command: cmds[rng.Intn(len(cmds))],
			Speed:   rng.Float64(),
			NavDist: rng.Float64(),
			RedDist: rng.Float64(),
			Targets: make([]float64, cfg.TargetSize()),
		}
		density := float64(filled) / float64(len(bev))
		for k := range s.Targets {
			s.Targets[k] = 0.3*s.Speed + 0.5*density - 0.2*s.RedDist +
				0.05*float64(s.Command.Index()) + 0.01*float64(k) + rng.Normal(0, 0.02)
		}
		out[i] = dataset.Weighted{Sample: s, Weight: rng.Uniform(0.5, 2)}
	}
	return out
}

// goldenTrajectory trains a fresh policy for 300 steps on 16-row batches
// drawn from a sparse pool — every seventh batch from a pool in which
// CmdRight never occurs, so one head sees no rows — and hashes the returned
// loss and every parameter after each 50th step, then a 64-item Loss, a
// 131-item PerSampleLosses and one Predict per command.
func goldenTrajectory(t *testing.T, cfg Config) string {
	t.Helper()
	pol, err := New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := simrand.New(41)
	pool := sparseSet(cfg, 256, rng.Derive("pool"),
		dataset.CmdFollow, dataset.CmdLeft, dataset.CmdRight, dataset.CmdStraight)
	noRight := sparseSet(cfg, 64, rng.Derive("no-right"),
		dataset.CmdFollow, dataset.CmdLeft, dataset.CmdStraight)
	pick := rng.Derive("pick")

	h := sha256.New()
	batch := make([]dataset.Weighted, 16)
	for step := 1; step <= 300; step++ {
		src := pool
		if step%7 == 0 {
			src = noRight
		}
		for i := range batch {
			batch[i] = src[pick.Intn(len(src))]
		}
		loss := pol.TrainStep(batch)
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("step %d: loss %v", step, loss)
		}
		if step%50 == 0 {
			t.Logf("step %d loss %.6f", step, loss)
			hashFloats(h, loss)
			hashFloats(h, pol.Flat()...)
		}
	}
	hashFloats(h, pol.Loss(pool[:64]))
	hashFloats(h, pol.PerSampleLosses(pool[64:195])...)
	for c := dataset.CmdFollow; c <= dataset.CmdStraight; c++ {
		s := noRight[int(c)].Sample
		hashFloats(h, pol.Predict(s.BEV, s.Speed, s.NavDist, s.RedDist, c)...)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenTrainTrajectory pins the training arithmetic across commits, bit
// for bit. TestGoldenEventStreams covers the same
// kernels at the real shapes, but a failure there does not say which layer
// moved; this one runs in well under two seconds and touches nothing but
// tensor, nn and model. A change that is meant to move float bits
// re-baselines explicitly with `go test ./internal/model -run Golden -update`.
func TestGoldenTrainTrajectory(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens are recorded on amd64; fused multiply-add changes float bits elsewhere")
	}
	got := map[string]string{
		"default": goldenTrajectory(t, DefaultConfig()),
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenModelPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenModelPath)
	if err != nil {
		t.Fatalf("reading goldens (record them with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decoding %s: %v", goldenModelPath, err)
	}
	for key, sum := range got {
		if want[key] != sum {
			t.Errorf("%s hash = %s, golden %s", key, sum, want[key])
		}
	}
	for key := range want {
		if _, ok := got[key]; !ok {
			t.Errorf("%s holds %s, which no configuration here records", goldenModelPath, key)
		}
	}
}
