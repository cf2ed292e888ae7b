package experiments

import (
	"context"
	"fmt"

	"lbchat/internal/core"
	"lbchat/internal/coreset"
	"lbchat/internal/metrics"
	"lbchat/internal/parallel"
)

// Extension studies beyond the paper's published tables: the route-sharing
// ablation its design section argues for, the alternative coreset
// constructions §V discusses, and the adaptive coreset sizing the paper
// names as future work.

// runSpec names one protocol run for runConcurrent.
type runSpec struct {
	name     ProtocolName
	lossless bool
	mut      func(*core.Config)
}

// runConcurrent executes independent protocol runs concurrently (each gets
// its own engine and fresh datasets) and returns results in argument order.
// Buffered telemetry streams drain into the Env's user sink in that same
// order, so a shared sink sees a deterministic stream at any worker count.
func (e *Env) runConcurrent(ctx context.Context, specs ...runSpec) ([]*ProtocolRun, error) {
	runs, err := parallel.MapErr(parallel.Resolve(e.Scale.Workers), len(specs), func(i int) (*ProtocolRun, error) {
		return e.runProtocol(ctx, specs[i].name, specs[i].lossless, specs[i].mut)
	})
	if err != nil {
		return nil, err
	}
	e.flushRuns(runs...)
	return runs, nil
}

// routeSharingStudy isolates the Eq. (5) neighbor prioritization by running
// LbChat with and without it under wireless loss. The paper credits
// route-sharing for LbChat's 87% receiving rate (vs ~51–60% for the
// benchmarks); the ablation shows how much of that margin the priority
// score carries.
func (e *Env) routeSharingStudy(ctx context.Context) (*metrics.Table, []*ProtocolRun, error) {
	runs, err := e.runConcurrent(ctx,
		runSpec{name: ProtoLbChat},
		runSpec{name: ProtoNoPrio},
	)
	if err != nil {
		return nil, nil, err
	}
	if anyCanceled(runs) {
		return nil, runs, nil
	}
	withPrio, without := runs[0], runs[1]
	tbl := metrics.NewTable("Route-sharing ablation (W wireless loss)",
		"LbChat", "LbChat-NoPrio")
	tbl.AddRow("final probe loss (x1000)", 1000*withPrio.Curve.Final(), 1000*without.Curve.Final())
	tbl.AddRow("model receive rate (%)", 100*withPrio.Recv.Rate(), 100*without.Recv.Rate())
	tbl.AddRow("transfers attempted", float64(withPrio.Recv.Attempts), float64(without.Recv.Attempts))
	return tbl, runs, nil
}

// coresetMethodStudy reruns LbChat with each §V coreset-construction
// alternative, reporting the final probe loss per method. All methods share
// the identical workload, radio, and budget |C|.
func (e *Env) coresetMethodStudy(ctx context.Context, lossless bool) (*metrics.Table, []*ProtocolRun, error) {
	methods := []coreset.Method{
		coreset.MethodLayered,
		coreset.MethodSensitivity,
		coreset.MethodClustering,
		coreset.MethodUniform,
	}
	cols := make([]string, len(methods))
	specs := make([]runSpec, len(methods))
	for i, m := range methods {
		m := m
		cols[i] = m.String()
		specs[i] = runSpec{name: ProtoLbChat, lossless: lossless,
			mut: func(c *core.Config) { c.CoresetMethod = m }}
	}
	runs, err := e.runConcurrent(ctx, specs...)
	if err != nil {
		return nil, nil, fmt.Errorf("coreset method study: %w", err)
	}
	if anyCanceled(runs) {
		return nil, runs, nil
	}
	finals := make([]float64, len(methods))
	rates := make([]float64, len(methods))
	for i, run := range runs {
		finals[i] = 1000 * run.Curve.Final()
		rates[i] = 100 * run.Recv.Rate()
	}
	tbl := metrics.NewTable("Coreset construction methods (LbChat)", cols...)
	tbl.AddRow("final probe loss (x1000)", finals...)
	tbl.AddRow("model receive rate (%)", rates...)
	return tbl, runs, nil
}

// adaptiveCoresetStudy compares the fixed default coreset budget against
// the adaptive per-vehicle sizing (the paper's future work: "Adaptive
// tuning the size of coreset will be our future work").
func (e *Env) adaptiveCoresetStudy(ctx context.Context, lossless bool) (*metrics.Table, []*ProtocolRun, error) {
	runs, err := e.runConcurrent(ctx,
		runSpec{name: ProtoLbChat, lossless: lossless},
		runSpec{name: ProtoAdaptive, lossless: lossless},
	)
	if err != nil {
		return nil, nil, err
	}
	if anyCanceled(runs) {
		return nil, runs, nil
	}
	fixed, adaptive := runs[0], runs[1]
	tbl := metrics.NewTable("Adaptive coreset sizing", "fixed |C|", "adaptive |C|")
	tbl.AddRow("final probe loss (x1000)", 1000*fixed.Curve.Final(), 1000*adaptive.Curve.Final())
	tbl.AddRow("model receive rate (%)", 100*fixed.Recv.Rate(), 100*adaptive.Recv.Rate())
	return tbl, runs, nil
}

// heterogeneityStudy explores the heterogeneous communication capabilities
// the paper's footnote 1 defers to future work: the fleet's bandwidths are
// spread over a wide range instead of the near-homogeneous default, and the
// Eq. (5)/Eq. (7) machinery — which already negotiates min{B_i, B_j} — is
// measured under the imbalance.
func (e *Env) heterogeneityStudy(ctx context.Context, lossless bool) (*metrics.Table, []*ProtocolRun, error) {
	runs, err := e.runConcurrent(ctx,
		runSpec{name: ProtoLbChat, lossless: lossless},
		runSpec{name: ProtoLbChat, lossless: lossless, mut: func(c *core.Config) {
			c.BandwidthMinBps = 5e6 // 5–31 Mbps spread
		}},
	)
	if err != nil {
		return nil, nil, err
	}
	if anyCanceled(runs) {
		return nil, runs, nil
	}
	homogeneous, heterogeneous := runs[0], runs[1]
	tbl := metrics.NewTable("Bandwidth heterogeneity (LbChat)",
		"20-31 Mbps", "5-31 Mbps")
	tbl.AddRow("final probe loss (x1000)", 1000*homogeneous.Curve.Final(), 1000*heterogeneous.Curve.Final())
	tbl.AddRow("model receive rate (%)", 100*homogeneous.Recv.Rate(), 100*heterogeneous.Recv.Rate())
	tbl.AddRow("transfers attempted", float64(homogeneous.Recv.Attempts), float64(heterogeneous.Recv.Attempts))
	return tbl, runs, nil
}

// compressionSchemeStudy compares the paper's default top-k delta
// sparsification against unbiased stochastic quantization (§III-C: "other
// biased/unbiased model compression methods can also be applied, such as
// quantization") inside full LbChat runs.
func (e *Env) compressionSchemeStudy(ctx context.Context, lossless bool) (*metrics.Table, []*ProtocolRun, error) {
	runs, err := e.runConcurrent(ctx,
		runSpec{name: ProtoLbChat, lossless: lossless},
		runSpec{name: ProtoLbChat, lossless: lossless, mut: func(c *core.Config) {
			c.CompressionScheme = core.SchemeQuantize
		}},
	)
	if err != nil {
		return nil, nil, err
	}
	if anyCanceled(runs) {
		return nil, runs, nil
	}
	topk, quant := runs[0], runs[1]
	tbl := metrics.NewTable("Compression schemes (LbChat)", "top-k", "quantization")
	tbl.AddRow("final probe loss (x1000)", 1000*topk.Curve.Final(), 1000*quant.Curve.Final())
	tbl.AddRow("model receive rate (%)", 100*topk.Recv.Rate(), 100*quant.Recv.Rate())
	tbl.AddRow("transfers attempted", float64(topk.Recv.Attempts), float64(quant.Recv.Attempts))
	return tbl, runs, nil
}
