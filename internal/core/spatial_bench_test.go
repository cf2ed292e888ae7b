package core

import (
	"fmt"
	"math"
	"testing"

	"lbchat/internal/dataset"
	"lbchat/internal/geom"
	"lbchat/internal/radio"
	"lbchat/internal/shard"
	"lbchat/internal/simrand"
	"lbchat/internal/telemetry"
	"lbchat/internal/trace"
)

// densityCell spaces the synthetic fleets at one vehicle per 250 m × 250 m
// on average, so the in-range neighborhood size stays O(1) (~13 peers at
// 500 m) as the fleet scales — the regime where the spatial index's
// asymptotic win shows, and fleet-scan's.
const densityCell = 250.0

// benchEngine builds an engine over a synthetic static trace of n vehicles
// scattered at densityCell spacing.
func benchEngine(tb testing.TB, n int) *Engine {
	tb.Helper()
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
	eng, err := NewEngine(cfg, tr, datasets, radio.NewModel(false), nil)
	if err != nil {
		tb.Fatalf("NewEngine: %v", err)
	}
	return eng
}

// fleetEngine builds a model-free engine ticking every dt seconds over a
// recorded shard.NewFleet random-waypoint trace of n vehicles at densityCell
// spacing, ticks rows long: empty datasets and fleet-scan's two-unit model,
// so n policies cost nothing and the contact scan is the tick's work.
func fleetEngine(tb testing.TB, n, ticks int, dt float64, sink telemetry.Sink) *Engine {
	tb.Helper()
	fleet := shard.NewFleet(uint64(n), n, densityCell*math.Sqrt(float64(n)))
	tr := trace.New(dt, n)
	for t := 0; t < ticks; t++ {
		fleet.Tick(dt, 1)
		copy(tr.AppendRow(), fleet.Positions())
	}
	datasets := make([]*dataset.Dataset, n)
	for i := range datasets {
		datasets[i] = dataset.New(0)
	}
	cfg := DefaultConfig()
	cfg.TickSeconds = dt
	cfg.Workers = 1
	cfg.Telemetry = sink
	cfg.Model.UseConv = false
	cfg.Model.BEVChannels, cfg.Model.BEVHeight, cfg.Model.BEVWidth = 1, 2, 2
	cfg.Model.Hidden = 2
	cfg.Model.NumWaypoints = 1
	eng, err := NewEngine(cfg, tr, datasets, radio.NewModel(false), nil)
	if err != nil {
		tb.Fatalf("NewEngine: %v", err)
	}
	return eng
}

// countingSink is a telemetry sink that only counts: the contact scan runs
// with telemetry on, and a recording sink would time its own appends.
type countingSink struct{ n int }

func (s *countingSink) Emit(telemetry.Event) { s.n++ }
func (s *countingSink) Close() error         { return nil }

// BenchmarkCandidatePairs times one tick's CandidatePairs with telemetry
// off, so no contact scan has listed the tick's pairs: the index rebuild,
// Pairs, the free mask and the filter, on the moving fleet
// BenchmarkScanContacts replays. One op is one tick, every vehicle free and
// no pair cooling down. make bench-pprof profiles it with
// BenchmarkScanContacts as bench-profiles/scan.cpu.pprof.
func BenchmarkCandidatePairs(b *testing.B) {
	const dt, ticks = 0.5, 120
	score := func(a, c int) float64 { return 1 }
	for _, n := range []int{1024, 4096} {
		eng := fleetEngine(b, n, ticks, dt, nil)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var pairs int
			for i := 0; i < b.N; i++ {
				eng.now = float64(i%ticks) * dt
				pairs += len(eng.CandidatePairs(score))
			}
			b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
		})
	}
}

// BenchmarkScanContacts times one tick's contact scan — the index rebuild,
// Pairs, and the merge with the open-contact list — on a moving fleet at
// fleet-scan's density and tick, emitting into a counting sink. One op is
// one tick; the replay wraps after a minute of virtual time.
func BenchmarkScanContacts(b *testing.B) {
	const dt, ticks = 0.5, 120
	for _, n := range []int{1024, 4096} {
		sink := &countingSink{}
		eng := fleetEngine(b, n, ticks, dt, sink)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			sink.n = 0
			for i := 0; i < b.N; i++ {
				eng.now = float64(i%ticks) * dt
				eng.scanContacts()
			}
			b.ReportMetric(float64(sink.n)/float64(b.N), "events/op")
		})
	}
}
