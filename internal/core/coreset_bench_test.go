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

// synthDataset builds n frames shaped like real collected data — a sparse
// binary BEV at the model's input geometry and a full waypoint target — so
// the per-sample loss evaluation inside EnsureCoreset costs what it costs
// in a real run, without paying for world simulation in benchmark setup.
func synthDataset(rng *simrand.Rand, cfg Config, n int) *dataset.Dataset {
	bevSize := cfg.Model.BEVSize()
	tgtSize := cfg.Model.TargetSize()
	ds := dataset.New(n)
	for i := 0; i < n; i++ {
		s := dataset.Sample{
			BEV:     make([]uint8, bevSize),
			Command: dataset.Command(i%dataset.NumCommands + 1),
			Speed:   rng.Uniform(0, 1),
			NavDist: rng.Uniform(0, 1),
			RedDist: rng.Uniform(0, 1),
			Targets: make([]float64, tgtSize),
		}
		for j := range s.BEV {
			if rng.Uniform(0, 1) < 0.1 {
				s.BEV[j] = 1
			}
		}
		for j := range s.Targets {
			s.Targets[j] = rng.Uniform(-1, 1)
		}
		ds.Add(s, 1)
	}
	return ds
}

// benchCoresetEngine builds a two-vehicle engine whose vehicles each hold a
// synthetic local dataset of datasetLen frames.
func benchCoresetEngine(b *testing.B, datasetLen int) *Engine {
	b.Helper()
	cfg := DefaultConfig()
	rng := simrand.New(uint64(datasetLen))
	datasets := []*dataset.Dataset{
		synthDataset(rng.Derive("v0"), cfg, datasetLen),
		synthDataset(rng.Derive("v1"), cfg, datasetLen),
	}
	tr := trace.FromRows(1, [][]geom.Point{{geom.Pt(0, 0), geom.Pt(100, 0)}})
	eng, err := NewEngine(cfg, tr, datasets, radio.NewModel(false), nil)
	if err != nil {
		b.Fatalf("NewEngine: %v", err)
	}
	return eng
}

// BenchmarkEnsureCoreset compares the production refresh with its oracle at
// local-dataset sizes from a fresh vehicle up to the expanded datasets
// absorbed from many peers.
//
// full: fullRebuildCoreset, the Algorithm-1 rebuild — per-sample loss scoring,
// layering, per-layer sampling over the whole dataset (capped at
// LayeringSample=384 scored samples above that size).
//
// incremental: the partition-tree refresh after a 128-frame tail append —
// the steady state of a vehicle that absorbed one peer coreset since its
// last refresh. Only the dirty tail leaf is rescored (LeafSample=80) and
// only its root path re-merged; at N=4096 that is 1 of 16 leaves (6.25%
// dirty), which is where the tree's ≥3x advantage over the full rebuild
// shows; the benchmarks/perf ledger re-times the refresh as
// core.ensure_coreset_{cold,warm}_us.
func BenchmarkEnsureCoreset(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("N=%d/full", n), func(b *testing.B) {
			eng := benchCoresetEngine(b, n)
			v := eng.Vehicles[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fullRebuildCoreset(eng, v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("N=%d/incremental", n), func(b *testing.B) {
			eng := benchCoresetEngine(b, n)
			v := eng.Vehicles[0]
			if _, err := eng.EnsureCoreset(v); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Tree.Invalidate(n-128, n)
				v.CoreBuiltAt = math.Inf(-1)
				if _, err := eng.EnsureCoreset(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAbsorbCoreset measures the merge-and-reduce maintenance path: a
// received peer coreset is absorbed into the local dataset, the partition
// tree extended over the appended range, and the resident coreset refreshed,
// at growing local-dataset sizes.
func BenchmarkAbsorbCoreset(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		eng := benchCoresetEngine(b, n)
		v := eng.Vehicles[0]
		baseCore, err := eng.EnsureCoreset(v)
		if err != nil {
			b.Fatal(err)
		}
		peer, err := eng.EnsureCoreset(eng.Vehicles[1])
		if err != nil {
			b.Fatal(err)
		}
		baseItems := v.Data.Items()
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Absorb mutates the vehicle; restore the pre-chat state
				// outside the timer so every iteration does the same work.
				// The tree is rewound to cover exactly the restored dataset
				// (reset, then re-extend) so each absorb's Extend grows it
				// over the appended range like a real chat would.
				b.StopTimer()
				v.Data = dataset.FromWeighted(baseItems)
				v.Core = baseCore
				if v.Tree != nil {
					v.Tree.Extend(0)
					v.Tree.Extend(v.Data.Len())
				}
				b.StartTimer()
				if err := eng.AbsorbCoreset(v, peer); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
