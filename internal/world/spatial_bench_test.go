package world

import (
	"fmt"
	"testing"

	"lbchat/internal/bev"
	"lbchat/internal/simrand"
)

// benchWorld spawns a world with n cars (half experts, half background)
// and n pedestrians on the default map.
func benchWorld(b *testing.B, n int) *World {
	b.Helper()
	m, err := NewMap(DefaultConfig())
	if err != nil {
		b.Fatalf("NewMap: %v", err)
	}
	w, err := New(m, SpawnConfig{Experts: n / 2, BackgroundCars: n - n/2, Pedestrians: n}, simrand.New(uint64(n)))
	if err != nil {
		b.Fatalf("world.New: %v", err)
	}
	return w
}

// BenchmarkWorldTick measures one full world step — every car's driving
// cone, pedestrian, intersection, and yielding queries plus every walker's
// road-entry check, all through the spatial index — at scaled populations.
// The N= cases step one world b.N times, so their per-step cost drifts with
// the traffic state b.N reaches; "paper" is the fixed-work form `make
// bench-pprof` profiles: a fresh world at the ledger's population (6 experts
// + the paper's 50 cars + 250 pedestrians) stepped 2000 times per op.
func BenchmarkWorldTick(b *testing.B) {
	b.Run("paper", func(b *testing.B) {
		m, err := NewMap(DefaultConfig())
		if err != nil {
			b.Fatalf("NewMap: %v", err)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w, err := New(m, SpawnConfig{Experts: 6, BackgroundCars: 50, Pedestrians: 250}, simrand.New(99))
			if err != nil {
				b.Fatalf("world.New: %v", err)
			}
			for tick := 0; tick < 2000; tick++ {
				w.Step(0.5)
			}
		}
	})
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("N=%d/index", n), func(b *testing.B) {
			w := benchWorld(b, n)
			w.Step(0.5) // warm: spawn settling + first index build
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Step(0.5)
			}
		})
	}
}

// BenchmarkBEV measures one BEV rasterization including the entity
// gathering that feeds it: ego-window culling through the spatial index,
// then Rasterize's exact per-entity window test.
func BenchmarkBEV(b *testing.B) {
	cfg := bev.DefaultConfig()
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("N=%d/index", n), func(b *testing.B) {
			w := benchWorld(b, n)
			ras := bev.NewRasterizer(cfg, w.Map)
			w.Step(0.5)
			ego := w.Experts[0]
			frame := ego.Frame()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ras.Rasterize(frame,
					w.VehiclePositionsNearSeenBy(frame.Origin, cfg.VehicleCullRadius(), ego.ID, nil),
					w.PedestrianPositionsNear(frame.Origin, cfg.PedestrianCullRadius()))
			}
		})
	}
}
