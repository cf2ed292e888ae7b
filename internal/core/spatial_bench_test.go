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

// benchEngine builds an engine over a synthetic static trace of n vehicles
// scattered at constant density (one vehicle per densityCell² on average),
// so the in-range neighborhood size stays O(1) as the fleet scales — the
// regime where the spatial index's asymptotic win shows.
func benchEngine(b *testing.B, n int) *Engine {
	b.Helper()
	const densityCell = 250.0 // m² per vehicle → ~13 in-range peers at 500 m
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
		b.Fatalf("NewEngine: %v", err)
	}
	return eng
}

// BenchmarkCandidatePairs measures per-tick pair enumeration through the
// spatial index at scaled fleet sizes; the benchmarks/perf ledger re-times
// it as core.candidate_pairs_us.
func BenchmarkCandidatePairs(b *testing.B) {
	score := func(a, c int) float64 { return 1 }
	for _, n := range []int{16, 64, 256} {
		eng := benchEngine(b, n)
		b.Run(fmt.Sprintf("N=%d/index", n), func(b *testing.B) {
			b.ReportAllocs()
			var pairs int
			for i := 0; i < b.N; i++ {
				pairs = len(eng.CandidatePairs(score))
			}
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}
