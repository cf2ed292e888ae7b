package experiments

import (
	"context"
	"fmt"
	"math"

	"lbchat/internal/core"
	"lbchat/internal/eval"
	"lbchat/internal/metrics"
)

// fig2 reproduces Figure 2: training loss vs time for LbChat and the four
// benchmarks. lossless=true is Fig. 2(a) ("W/O wireless loss"),
// lossless=false is Fig. 2(b) ("W wireless loss").
//
// The five protocol runs are fully independent — each gets its own engine,
// fresh dataset clones, and seed-derived random streams — so they execute
// concurrently; results come back in protocol order either way.
func (e *Env) fig2(ctx context.Context, lossless bool) ([]*ProtocolRun, error) {
	specs := make([]runSpec, len(BenchmarkProtocols))
	for i, name := range BenchmarkProtocols {
		specs[i] = runSpec{name: name, lossless: lossless}
	}
	return e.runConcurrent(ctx, specs...)
}

// ReceiveRates extracts the §IV-C successful model-receiving rates from a
// set of lossy-regime runs (the paper reports LbChat 87% vs 51–60% for the
// benchmarks).
func ReceiveRates(runs []*ProtocolRun) map[ProtocolName]float64 {
	out := make(map[ProtocolName]float64, len(runs))
	for _, r := range runs {
		out[r.Name] = 100 * r.Recv.Rate()
	}
	return out
}

// SuccessRates evaluates the final fleets of a set of runs on the driving
// benchmark, returning per-protocol condition→rate maps (Tables II–III).
func (e *Env) SuccessRates(runs []*ProtocolRun) map[ProtocolName]map[eval.Condition]float64 {
	out := make(map[ProtocolName]map[eval.Condition]float64, len(runs))
	for _, r := range runs {
		out[r.Name] = e.EvalFleet(r.Fleet)
	}
	return out
}

// benchmarkTable trains the five-protocol lineup in the given regime and
// evaluates the fleets (Tables II/III). A canceled training phase returns
// the partial runs with a nil table.
func (e *Env) benchmarkTable(ctx context.Context, lossless bool) (*metrics.Table, []*ProtocolRun, error) {
	runs, err := e.fig2(ctx, lossless)
	if err != nil {
		return nil, nil, err
	}
	if anyCanceled(runs) {
		return nil, runs, nil
	}
	title := "Table II: driving success rate on average (W/O wireless loss) (%)"
	if !lossless {
		title = "Table III: driving success rate on average (W wireless loss) (%)"
	}
	rates := e.SuccessRates(runs)
	return e.SuccessTable(title, BenchmarkProtocols, rates), runs, nil
}

// table4 reproduces Table IV: LbChat with coreset sizes 10× and 1/10 the
// default, in both wireless regimes. Columns follow the paper: 1500 (W/O),
// 15 (W/O), 1500 (W), 15 (W).
func (e *Env) table4(ctx context.Context) (*metrics.Table, []*ProtocolRun, error) {
	type variant struct {
		label    string
		size     int
		lossless bool
	}
	variants := []variant{
		{"1500 (W/O)", e.Cfg.CoresetSize * 10, true},
		{"15 (W/O)", maxInt(e.Cfg.CoresetSize/10, 2), true},
		{"1500 (W)", e.Cfg.CoresetSize * 10, false},
		{"15 (W)", maxInt(e.Cfg.CoresetSize/10, 2), false},
	}
	cols := make([]string, len(variants))
	specs := make([]runSpec, len(variants))
	for i, v := range variants {
		size := v.size
		cols[i] = v.label
		specs[i] = runSpec{name: ProtoLbChat, lossless: v.lossless,
			mut: func(c *core.Config) { c.CoresetSize = size }}
	}
	// The four coreset-size variants are independent runs and train
	// concurrently; fleet evaluation itself fans out across workers.
	runs, err := e.runConcurrent(ctx, specs...)
	if err != nil {
		return nil, nil, err
	}
	if anyCanceled(runs) {
		return nil, runs, nil
	}
	tbl := metrics.NewTable("Table IV: driving success rate with different coreset size (%)", cols...)
	rates := make([]map[eval.Condition]float64, len(runs))
	for i, run := range runs {
		rates[i] = e.EvalFleet(run.Fleet)
	}
	for _, cond := range eval.Conditions {
		vals := make([]float64, len(variants))
		for i := range variants {
			vals[i] = rates[i][cond]
		}
		tbl.AddRow(cond.String(), vals...)
	}
	return tbl, runs, nil
}

// ablationTable runs one LbChat variant in both wireless regimes (the two
// regimes are independent runs and execute concurrently): Table V is the
// equal-compression ablation (Eq. (7) masked), Table VI the
// average-aggregation ablation (Eq. (8) masked), Table VII SCO, sharing
// coresets only.
func (e *Env) ablationTable(ctx context.Context, title string, name ProtocolName) (*metrics.Table, []*ProtocolRun, error) {
	runs, err := e.runConcurrent(ctx,
		runSpec{name: name, lossless: true},
		runSpec{name: name, lossless: false},
	)
	if err != nil {
		return nil, nil, err
	}
	if anyCanceled(runs) {
		return nil, runs, nil
	}
	wo, w := e.EvalFleet(runs[0].Fleet), e.EvalFleet(runs[1].Fleet)
	tbl := metrics.NewTable(title, "W/O wireless loss", "W wireless loss")
	for _, cond := range eval.Conditions {
		tbl.AddRow(cond.String(), wo[cond], w[cond])
	}
	return tbl, runs, nil
}

// fig3 reproduces Figure 3: LbChat vs SCO loss curves, plus the
// convergence-time ratio the paper highlights (SCO takes 1.5–1.8× longer).
// The threshold is the loss both curves eventually reach, placed at 10%
// above the slower curve's best.
func (e *Env) fig3(ctx context.Context, lossless bool) (lbchat, sco *ProtocolRun, ratio float64, err error) {
	runs, err := e.runConcurrent(ctx,
		runSpec{name: ProtoLbChat, lossless: lossless},
		runSpec{name: ProtoSCO, lossless: lossless},
	)
	if err != nil {
		return nil, nil, 0, err
	}
	lbchat, sco = runs[0], runs[1]
	ratio = ConvergenceRatio(&lbchat.Curve, &sco.Curve)
	return lbchat, sco, ratio, nil
}

// ConvergenceRatio returns how much longer the second curve takes to reach
// a common loss threshold (NaN when either never reaches it).
func ConvergenceRatio(fast, slow *metrics.Curve) float64 {
	threshold := 1.10 * math.Max(fast.Min(), slow.Min())
	tFast := fast.TimeToReach(threshold)
	tSlow := slow.TimeToReach(threshold)
	if math.IsNaN(tFast) || math.IsNaN(tSlow) || tFast <= 0 {
		return math.NaN()
	}
	return tSlow / tFast
}

// RenderCurves prints a set of loss curves in aligned columns for plotting.
func RenderCurves(runs []*ProtocolRun) string {
	out := ""
	for _, r := range runs {
		out += r.Curve.Render() + "\n"
	}
	return out
}

// RenderReceiveRates prints the §IV-C receive-rate comparison.
func RenderReceiveRates(rates map[ProtocolName]float64) string {
	out := "Successful model receiving rate (%)\n"
	for _, name := range BenchmarkProtocols {
		if r, ok := rates[name]; ok {
			out += fmt.Sprintf("  %-10s %5.1f\n", name, r)
		}
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
