// Package lbchat's root benchmark suite regenerates every table and figure
// of the paper's evaluation (§IV). Each benchmark runs one experiment at
// BenchScale-derived sizing and reports the headline quantities as custom
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
	"sync"
	"testing"

	"lbchat/internal/core"
	"lbchat/internal/eval"
	"lbchat/internal/experiments"
	"lbchat/internal/simrand"
)

// benchScale trims the default bench scale so the full suite (10 table and
// figure regenerations, each training multiple fleets) completes on a single
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

// runExp runs one experiment against the shared environment.
func runExp(b *testing.B, env *experiments.Env, experiment string, lossless bool) *experiments.Result {
	b.Helper()
	res, err := experiments.Run(context.Background(), experiments.Spec{Experiment: experiment, Lossless: lossless, Env: env})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// reportRates attaches per-condition success rates as benchmark metrics.
func reportRates(b *testing.B, prefix string, rates map[eval.Condition]float64) {
	b.Helper()
	for _, cond := range eval.Conditions {
		if r, ok := rates[cond]; ok && !math.IsNaN(r) {
			b.ReportMetric(r, prefix+metricName(cond)+"_%")
		}
	}
}

func metricName(c eval.Condition) string {
	switch c {
	case eval.CondStraight:
		return "straight"
	case eval.CondOneTurn:
		return "one_turn"
	case eval.CondNaviEmpty:
		return "navi_empty"
	case eval.CondNaviNormal:
		return "navi_normal"
	case eval.CondNaviDense:
		return "navi_dense"
	default:
		return "unknown"
	}
}

// BenchmarkFig2a regenerates Figure 2(a): training-loss curves for all five
// protocols without wireless loss. Reported metrics are each protocol's
// final probe loss (×1000 for readability).
func BenchmarkFig2a(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		runs := runExp(b, env, experiments.ExpFig2, true).Runs
		for _, r := range runs {
			b.ReportMetric(1000*r.Curve.Final(), string(r.Name)+"_mloss")
		}
	}
}

// BenchmarkFig2b regenerates Figure 2(b): the same lineup under the
// distance-based wireless loss model.
func BenchmarkFig2b(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		runs := runExp(b, env, experiments.ExpFig2, false).Runs
		for _, r := range runs {
			b.ReportMetric(1000*r.Curve.Final(), string(r.Name)+"_mloss")
		}
	}
}

// BenchmarkReceiveRates regenerates the §IV-C successful model-receiving
// rate comparison (paper: LbChat 87% vs 51–60% for the benchmarks).
func BenchmarkReceiveRates(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		runs := runExp(b, env, experiments.ExpFig2, false).Runs
		for name, rate := range experiments.ReceiveRates(runs) {
			if !math.IsNaN(rate) {
				b.ReportMetric(rate, string(name)+"_recv_%")
			}
		}
	}
}

// BenchmarkTable2 regenerates Table II: driving success rate per protocol
// without wireless loss. LbChat's per-condition rates are reported.
func BenchmarkTable2(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		runs := runExp(b, env, experiments.ExpFig2, true).Runs
		rates := env.SuccessRates(runs)
		tbl := env.SuccessTable("Table II", experiments.BenchmarkProtocols, rates)
		_ = tbl
		reportRates(b, "lbchat_", rates[experiments.ProtoLbChat])
	}
}

// BenchmarkTable3 regenerates Table III: driving success rates under
// wireless loss.
func BenchmarkTable3(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		runs := runExp(b, env, experiments.ExpFig2, false).Runs
		rates := env.SuccessRates(runs)
		reportRates(b, "lbchat_", rates[experiments.ProtoLbChat])
	}
}

// BenchmarkTable4 regenerates Table IV: the coreset-size sweep (10× and
// 1/10 the default |C|, both wireless regimes).
func BenchmarkTable4(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		tbl := runExp(b, env, experiments.ExpTable4, false).Table
		b.ReportMetric(tbl.Value("Navi. (Dense)", "1500 (W/O)"), "dense_1500_wo_%")
		b.ReportMetric(tbl.Value("Navi. (Dense)", "15 (W/O)"), "dense_15_wo_%")
	}
}

// BenchmarkTable5 regenerates Table V: the equal-compression ablation
// (Eq. (7) masked).
func BenchmarkTable5(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		tbl := runExp(b, env, experiments.ExpTable5, false).Table
		b.ReportMetric(tbl.Value("Navi. (Dense)", "W/O wireless loss"), "dense_wo_%")
		b.ReportMetric(tbl.Value("Navi. (Dense)", "W wireless loss"), "dense_w_%")
	}
}

// BenchmarkTable6 regenerates Table VI: the average-aggregation ablation
// (Eq. (8) masked).
func BenchmarkTable6(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		tbl := runExp(b, env, experiments.ExpTable6, false).Table
		b.ReportMetric(tbl.Value("Navi. (Dense)", "W/O wireless loss"), "dense_wo_%")
		b.ReportMetric(tbl.Value("Navi. (Dense)", "W wireless loss"), "dense_w_%")
	}
}

// BenchmarkTable7 regenerates Table VII: SCO, sharing coresets only.
func BenchmarkTable7(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		tbl := runExp(b, env, experiments.ExpTable7, false).Table
		b.ReportMetric(tbl.Value("Navi. (Dense)", "W/O wireless loss"), "dense_wo_%")
		b.ReportMetric(tbl.Value("Navi. (Dense)", "W wireless loss"), "dense_w_%")
	}
}

// BenchmarkFig3 regenerates Figure 3: LbChat vs SCO loss curves and the
// convergence-time ratio (paper: SCO needs 1.5–1.8× longer).
func BenchmarkFig3(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		res := runExp(b, env, experiments.ExpFig3, true)
		lb, sco, ratio := res.Runs[0], res.Runs[1], res.Ratio
		b.ReportMetric(1000*lb.Curve.Final(), "lbchat_mloss")
		b.ReportMetric(1000*sco.Curve.Final(), "sco_mloss")
		if !math.IsNaN(ratio) {
			b.ReportMetric(ratio, "sco_slowdown_x")
		}
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

// BenchmarkRouteSharingAblation isolates the Eq. (5) prioritization: LbChat
// with and without route-sharing neighbor selection under wireless loss.
func BenchmarkRouteSharingAblation(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		tbl := runExp(b, env, experiments.ExpRouteShare, false).Table
		b.ReportMetric(tbl.Value("model receive rate (%)", "LbChat"), "with_prio_recv_%")
		b.ReportMetric(tbl.Value("model receive rate (%)", "LbChat-NoPrio"), "no_prio_recv_%")
	}
}

// BenchmarkCoresetMethods compares the §V coreset-construction alternatives
// inside full LbChat runs.
func BenchmarkCoresetMethods(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		tbl := runExp(b, env, experiments.ExpMethods, true).Table
		for _, m := range []string{"layered", "sensitivity", "clustering", "uniform"} {
			b.ReportMetric(tbl.Value("final probe loss (x1000)", m), m+"_mloss")
		}
	}
}

// BenchmarkAdaptiveCoreset measures the future-work adaptive coreset sizing
// against the fixed default budget.
func BenchmarkAdaptiveCoreset(b *testing.B) {
	env := getBenchEnv(b)
	for i := 0; i < b.N; i++ {
		tbl := runExp(b, env, experiments.ExpAdaptive, true).Table
		b.ReportMetric(tbl.Value("final probe loss (x1000)", "fixed |C|"), "fixed_mloss")
		b.ReportMetric(tbl.Value("final probe loss (x1000)", "adaptive |C|"), "adaptive_mloss")
	}
}
