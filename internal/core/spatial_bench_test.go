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
	tr := scatterTrace(n)
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

// scatterTrace is a one-row trace of n vehicles scattered uniformly at
// densityCell spacing.
func scatterTrace(n int) *trace.Trace {
	side := densityCell * math.Sqrt(float64(n))
	rng := simrand.New(uint64(n))
	snap := make([]geom.Point, n)
	for i := range snap {
		snap[i] = geom.Pt(rng.Uniform(0, side), rng.Uniform(0, side))
	}
	return trace.FromRows(1, [][]geom.Point{snap})
}

// fleetEngine builds a model-free engine ticking every dt seconds over a
// recorded shard.NewFleet random-waypoint trace of n vehicles at densityCell
// spacing, ticks rows long: empty datasets and fleet-scan's two-unit model,
// so n policies cost nothing and the contact scan is the tick's work.
func fleetEngine(tb testing.TB, n, ticks int, dt float64, sink telemetry.Sink) *Engine {
	tb.Helper()
	return rowsEngine(tb, trace.FromRows(dt, fleetRows(n, ticks, dt)), sink)
}

// fleetRows records ticks rows of a shard.NewFleet random-waypoint fleet of
// n vehicles at densityCell spacing, one row every dt seconds.
func fleetRows(n, ticks int, dt float64) [][]geom.Point {
	fleet := shard.NewFleet(uint64(n), n, densityCell*math.Sqrt(float64(n)))
	rows := make([][]geom.Point, ticks)
	for t := range rows {
		fleet.Tick(dt, 1)
		rows[t] = append([]geom.Point(nil), fleet.Positions()...)
	}
	return rows
}

// rowsEngine builds fleetEngine's model-free engine over any trace, ticking
// at the trace's own interval.
func rowsEngine(tb testing.TB, tr trace.Source, sink telemetry.Sink) *Engine {
	tb.Helper()
	cfg, datasets := rowsInputs(tr, sink)
	eng, err := NewEngine(cfg, tr, datasets, radio.NewModel(false), nil)
	if err != nil {
		tb.Fatalf("NewEngine: %v", err)
	}
	return eng
}

// rowsInputs returns rowsEngine's configuration — one worker, the trace's
// tick, fleet-scan's two-unit model — and one empty dataset per vehicle.
func rowsInputs(tr trace.Source, sink telemetry.Sink) (Config, []*dataset.Dataset) {
	datasets := make([]*dataset.Dataset, tr.NumVehicles())
	for i := range datasets {
		datasets[i] = dataset.New(0)
	}
	cfg := DefaultConfig()
	cfg.TickSeconds = tr.DT()
	cfg.Workers = 1
	cfg.Telemetry = sink
	cfg.Model.UseConv = false
	cfg.Model.BEVChannels, cfg.Model.BEVHeight, cfg.Model.BEVWidth = 1, 2, 2
	cfg.Model.Hidden = 2
	cfg.Model.NumWaypoints = 1
	return cfg, datasets
}

// countingSink is a telemetry sink that only counts: the contact scan runs
// with telemetry on, and a recording sink would time its own appends. It
// also observes, counting the skin list's rebuilds off the side channel.
type countingSink struct{ n, rebuilds int }

func (s *countingSink) Emit(telemetry.Event) { s.n++ }
func (s *countingSink) Close() error         { return nil }

func (s *countingSink) Observe(name string, _ float64) {
	if name == telemetry.MSkinRebuilds {
		s.rebuilds++
	}
}

// BenchmarkCandidatePairs times one tick's CandidatePairs with telemetry
// off, so no contact scan has listed the tick's pairs: the skin check, a
// rebuild when it is due, the filter to the in-range list, the free mask
// and the free-pair filter, on the moving fleet BenchmarkScanContacts
// replays. One op is one tick, every vehicle free and no pair cooling down;
// rebuilds/op is the share of ticks that re-enumerated the skin list (the
// engine observes only the side channel, so no event is built). make
// bench-pprof profiles it with BenchmarkScanContacts as
// bench-profiles/scan.cpu.pprof.
func BenchmarkCandidatePairs(b *testing.B) {
	const dt, ticks = 0.5, 120
	score := func(a, c int) float64 { return 1 }
	for _, n := range []int{1024, 4096} {
		eng := fleetEngine(b, n, ticks, dt, nil)
		obs := &countingSink{}
		eng.obs = obs
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var pairs int
			obs.rebuilds = 0
			for i := 0; i < b.N; i++ {
				eng.now = float64(i%ticks) * dt
				pairs += len(eng.CandidatePairs(score))
			}
			b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
			b.ReportMetric(float64(obs.rebuilds)/float64(b.N), "rebuilds/op")
		})
	}
}

// BenchmarkScanContacts times one tick's contact scan — the skin check, a
// rebuild when it is due, the filter to the in-range list, and the merge
// with the open-contact list — on a moving fleet at fleet-scan's density
// and tick, emitting into a counting sink. One op is one tick; the replay
// wraps after a minute of virtual time, which costs a rebuild.
func BenchmarkScanContacts(b *testing.B) {
	const dt, ticks = 0.5, 120
	for _, n := range []int{1024, 4096} {
		sink := &countingSink{}
		eng := fleetEngine(b, n, ticks, dt, sink)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			sink.n, sink.rebuilds = 0, 0
			for i := 0; i < b.N; i++ {
				eng.now = float64(i%ticks) * dt
				eng.scanContacts()
			}
			b.ReportMetric(float64(sink.n)/float64(b.N), "events/op")
			b.ReportMetric(float64(sink.rebuilds)/float64(b.N), "rebuilds/op")
		})
	}
}
