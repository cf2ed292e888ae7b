package world

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

	"lbchat/internal/bev"
	"lbchat/internal/simrand"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_world.json from this tree's output")

const goldenWorldPath = "testdata/golden_world.json"

// hashFloats folds the exact bit patterns of vals into h.
func hashFloats(h hash.Hash, vals ...float64) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

// TestGoldenWorldTrajectory pins the world's behaviour across commits: the
// hash of every car's (S, V) and every pedestrian's position over 400 ticks,
// of every sample a 120-tick CollectDataset produces, and of every 50th tick
// of a 6000-tick run at the paper's traffic population (6 + 50 + 250 — long
// enough for dozens of route extensions and revisited corners, which the
// 400-tick run never reaches) must match the committed goldens. A change
// that is meant to move trajectories or frames re-baselines explicitly with
// `go test ./internal/world -run Golden -update`.
func TestGoldenWorldTrajectory(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens are recorded on amd64; fused multiply-add changes float bits elsewhere")
	}
	m, err := NewMap(DefaultConfig())
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	spawn := func(cfg SpawnConfig) *World {
		w, err := New(m, cfg, simrand.New(99))
		if err != nil {
			t.Fatalf("world.New: %v", err)
		}
		return w
	}

	hashState := func(h hash.Hash, w *World) {
		for _, v := range w.Experts {
			hashFloats(h, v.S, v.V)
		}
		for _, v := range w.Background {
			hashFloats(h, v.S, v.V)
		}
		for _, p := range w.Pedestrians {
			hashFloats(h, p.Pos.X, p.Pos.Y)
		}
	}

	traj := sha256.New()
	w := spawn(SpawnConfig{Experts: 6, BackgroundCars: 14, Pedestrians: 60})
	for tick := 0; tick < 400; tick++ {
		w.Step(0.5)
		hashState(traj, w)
	}

	long := sha256.New()
	w = spawn(SpawnConfig{Experts: 6, BackgroundCars: 50, Pedestrians: 250})
	for tick := 1; tick <= 6000; tick++ {
		w.Step(0.5)
		if tick%50 == 0 {
			hashState(long, w)
			for _, v := range w.Experts {
				hashFloats(long, v.Route.Length(), float64(len(v.Route.nodes)))
			}
		}
	}

	data := sha256.New()
	w = spawn(SpawnConfig{Experts: 4, BackgroundCars: 10, Pedestrians: 40})
	ras := bev.NewRasterizer(bev.DefaultConfig(), m)
	for _, d := range CollectDataset(w, ras, 4, 120, 0.5) {
		for _, item := range d.Items() {
			s := item.Sample
			data.Write(s.BEV)
			hashFloats(data, float64(s.Command), s.Speed, s.NavDist, s.RedDist)
			hashFloats(data, s.Targets...)
		}
	}

	got := map[string]string{
		"trajectory": hex.EncodeToString(traj.Sum(nil)),
		"long":       hex.EncodeToString(long.Sum(nil)),
		"dataset":    hex.EncodeToString(data.Sum(nil)),
	}
	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenWorldPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenWorldPath)
	if err != nil {
		t.Fatalf("reading goldens (record them with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decoding %s: %v", goldenWorldPath, err)
	}
	for key, sum := range got {
		if want[key] != sum {
			t.Errorf("%s hash = %s, golden %s", key, sum, want[key])
		}
	}
}
