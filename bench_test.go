// Package lbchat's root benchmark suite regenerates every table and figure
// of the paper's evaluation (§IV) and every extension study:
// BenchmarkExperiment/<token> runs one experiments.Catalogue entry at
// BenchScale-derived sizing and reports the cells of its table as custom
// metrics alongside the usual ns/op:
//
//	go test -bench=. -benchmem
//
// The shared environment (map, datasets, mobility trace, driving routes) is
// built once and reused; every benchmark iteration re-runs the protocol
// training and/or evaluation from pristine state. For paper-scale runs (32
// vehicles) use cmd/lbchat-bench -scale full instead.
package lbchat_test

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"lbchat/internal/core"
	"lbchat/internal/experiments"
	"lbchat/internal/simrand"
)

// benchScale trims the default bench scale so the full suite (every
// catalogue entry, most training multiple fleets) completes on a single
// CPU core in reasonable time. Scale up via cmd/lbchat-bench. Workers stays
// at the auto default, so on a multi-core host the harnesses fan their
// independent protocol runs, vehicle ticks, and evaluation rollouts across
// cores — with bit-identical results (see BenchmarkLbChatWorkers*).
func benchScale() experiments.Scale {
	s := experiments.BenchScale()
	s.Vehicles = 6
	s.CollectTicks = 900
	s.TraceTicks = 9600
	s.TrainDuration = 1500
	s.ProbeFrames = 64
	s.EvalTrials = 8
	s.EvalFleetSample = 2
	s.RoutesPerCondition = 5
	return s
}

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
)

func getBenchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnv, benchEnvErr = experiments.BuildEnv(benchScale())
	})
	if benchEnvErr != nil {
		b.Fatalf("building environment: %v", benchEnvErr)
	}
	return benchEnv
}

// BenchmarkExperiment regenerates every catalogue entry — one sub-benchmark
// per -exp token, e.g. -bench 'Experiment/tab4$' — and reports each cell of
// the entry's table as a custom metric named row/column (driving success
// rates for the tables, final probe losses for the figures, the Fig. 3
// slowdown, the studies' scalars).
func BenchmarkExperiment(b *testing.B) {
	for _, x := range experiments.Catalogue {
		b.Run(x.Name, func(b *testing.B) {
			spec := experiments.Spec{Experiment: x.Name, Env: getBenchEnv(b)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := experiments.Run(context.Background(), spec)
				if err != nil {
					b.Fatal(err)
				}
				for _, row := range res.Table.Rows() {
					for _, col := range res.Table.Columns {
						if v := res.Table.Value(row, col); !math.IsNaN(v) {
							b.ReportMetric(v, strings.Join(strings.Fields(row+"/"+col), "_"))
						}
					}
				}
			}
		})
	}
}

// BenchmarkTrainStep measures one local training step (the inner loop of
// every vehicle's Algorithm 2 line 3).
func BenchmarkTrainStep(b *testing.B) {
	env := getBenchEnv(b)
	ds := env.FreshDatasets()[0]
	run, err := env.RunProtocol(experiments.ProtoLbChat, true, func(c *core.Config) {})
	if err != nil {
		b.Fatal(err)
	}
	pol := run.Fleet[0]
	rng := simrand.New(99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol.TrainStep(ds.SampleBatch(16, rng))
	}
}

// benchmarkLbChatRun times one LbChat training run (wireless loss) at a
// fixed worker count; comparing the Workers1 and WorkersAuto variants
// measures the parallel execution layer's speedup on the host (≈1× on a
// single core, rising with cores since the five-protocol harnesses,
// per-vehicle ticks, and eval rollouts all fan out).
func benchmarkLbChatRun(b *testing.B, workers int) {
	env := getBenchEnv(b)
	e := *env
	e.Scale.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := e.RunProtocol(experiments.ProtoLbChat, false, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(1000*run.Curve.Final(), "mloss")
	}
}

// BenchmarkLbChatWorkers1 is the serial baseline for the speedup comparison.
func BenchmarkLbChatWorkers1(b *testing.B) { benchmarkLbChatRun(b, 1) }

// BenchmarkLbChatWorkersAuto runs with one worker per available CPU.
func BenchmarkLbChatWorkersAuto(b *testing.B) { benchmarkLbChatRun(b, 0) }
