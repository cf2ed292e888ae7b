package core

import (
	"fmt"
	"testing"

	"lbchat/internal/model"
	"lbchat/internal/radio"
)

// TestVehiclesStartFromOneInit pins the paper's shared start: every vehicle
// holds model.New(cfg.Model, cfg.Seed)'s parameters bit for bit, and no two
// vehicles share storage — one vehicle's train step moves no other.
func TestVehiclesStartFromOneInit(t *testing.T) {
	eng, cfg := tinyEnv(t, 3, true)
	ref, err := model.New(cfg.Model, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Flat()
	for _, v := range eng.Vehicles {
		if !bitEqual(v.Policy.Flat(), want) {
			t.Fatalf("vehicle %d does not start from model.New(cfg.Model, cfg.Seed)", v.ID)
		}
	}
	if !bitEqual(eng.initFlat, want) {
		t.Fatal("the engine's initFlat is not the vehicles' initialization")
	}
	v0 := eng.Vehicles[0]
	v0.Policy.TrainStep(v0.Data.SampleBatch(8, v0.RNG()))
	if bitEqual(v0.Policy.Flat(), want) {
		t.Fatal("the train step moved nothing; the check below is vacuous")
	}
	for _, v := range eng.Vehicles[1:] {
		if !bitEqual(v.Policy.Flat(), want) {
			t.Errorf("training vehicle 0 moved vehicle %d", v.ID)
		}
	}
}

// maxEngineBytesPerVehicle bounds what NewEngine allocates per vehicle on
// rowsEngine's two-unit model: the policy clone, the vehicle and its one
// seeded stream measure 9.9 KB. One more seeded math/rand source per vehicle
// (≈ 4.9 KB: an extra Derive) crosses it, and a model.New per vehicle (seven
// sources, 48 KB) is far past it.
const maxEngineBytesPerVehicle = 12 << 10

// TestNewEngineAllocations guards the set-up cost of one shared
// initialization: NewEngine's heap per vehicle at N = 1024.
func TestNewEngineAllocations(t *testing.T) {
	const n = 1024
	tr := scatterTrace(n)
	rm := radio.NewModel(false)
	cfg, datasets := rowsInputs(tr, nil)
	perVehicle := allocatedBytes(func() {
		if _, err := NewEngine(cfg, tr, datasets, rm, nil); err != nil {
			t.Fatal(err)
		}
	}) / n
	t.Logf("NewEngine allocates %d B per vehicle", perVehicle)
	if perVehicle > maxEngineBytesPerVehicle {
		t.Errorf("NewEngine allocates %d B per vehicle, bound %d", perVehicle, maxEngineBytesPerVehicle)
	}
}

// BenchmarkNewEngine times building rowsEngine's model-free engine — the
// shared initialization, its per-vehicle clones and the vehicles' streams —
// over a one-row trace: fleet-scan's setup.engine_new_s at N = 4096. make
// bench-pprof profiles it as bench-profiles/setup.cpu.pprof.
func BenchmarkNewEngine(b *testing.B) {
	for _, n := range []int{1024, 4096} {
		tr := scatterTrace(n)
		rm := radio.NewModel(false)
		cfg, datasets := rowsInputs(tr, nil)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewEngine(cfg, tr, datasets, rm, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
