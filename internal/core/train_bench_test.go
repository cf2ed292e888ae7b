package core

import (
	"fmt"
	"math"
	"testing"

	"lbchat/internal/dataset"
	"lbchat/internal/geom"
	"lbchat/internal/radio"
	"lbchat/internal/simrand"
	"lbchat/internal/trace"
)

// benchTrainEngine builds an engine over a synthetic static trace of n
// vehicles with empty datasets (so trainTick's cost is pure scheduling, not
// SGD) and the given tick against the fixed 2 s train interval: a 0.02 s
// tick makes ~1% of the fleet due per tick (the sparse steady state a real
// run sits in), a 2 s tick makes the whole fleet due every tick (the dense
// worst case).
func benchTrainEngine(b *testing.B, n int, tick float64) *Engine {
	b.Helper()
	side := densityCell * math.Sqrt(float64(n))
	rng := simrand.New(uint64(n))
	snap := make([]geom.Point, n)
	for i := range snap {
		snap[i] = geom.Pt(rng.Uniform(0, side), rng.Uniform(0, side))
	}
	tr := trace.FromRows(1, [][]geom.Point{snap})
	datasets := make([]*dataset.Dataset, n)
	for i := range datasets {
		datasets[i] = dataset.New(0)
	}
	cfg := DefaultConfig()
	cfg.TickSeconds = tick
	// Tiny policies: the benchmark measures scheduling, and 10k full-size
	// models would make setup (and its GC shadow in the timed region) the
	// dominant cost.
	cfg.Model.UseConv = false
	cfg.Model.BEVChannels, cfg.Model.BEVHeight, cfg.Model.BEVWidth = 1, 2, 2
	cfg.Model.Hidden = 2
	cfg.Model.NumWaypoints = 1
	// Serial dispatch isolates due discovery from goroutine fan-out cost,
	// which drowns it at bench step sizes.
	cfg.Workers = 1
	eng, err := NewEngine(cfg, tr, datasets, radio.NewModel(false), nil)
	if err != nil {
		b.Fatalf("NewEngine: %v", err)
	}
	return eng
}

// BenchmarkTrainTick measures per-tick due-vehicle discovery through the
// calendar queue at scaled fleet sizes, at a sparse (1% due) and a dense
// (100% due) tick mix. The sparse arm is the headline number — empty and
// lightly-due ticks are the common case, and the wheel makes them O(due)
// instead of O(fleet). The benchmarks/perf ledger re-times the wheel as
// sched.calendar_cycle_ns beside fleet-scan's core.tick_ms_p50.
func BenchmarkTrainTick(b *testing.B) {
	for _, n := range []int{1024, 10240} {
		for _, due := range []struct {
			name string
			tick float64
		}{{"sparse", 0.02}, {"dense", 2}} {
			b.Run(fmt.Sprintf("N=%d/due=%s/calendar", n, due.name), func(b *testing.B) {
				eng := benchTrainEngine(b, n, due.tick)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.trainTick()
					eng.now += eng.Cfg.TickSeconds
					eng.tickIndex++
				}
			})
		}
	}
}
