// Command lbchat-bench regenerates the paper's tables and figures
// end-to-end: it builds the driving world, collects per-vehicle datasets,
// records mobility traces, trains fleets under every protocol, and prints
// each artifact in the paper's layout, followed by a per-protocol
// communication-efficiency report (bytes on air vs final loss).
//
// Usage:
//
//	lbchat-bench -exp all -scale bench
//	lbchat-bench -exp fig2a,tab2 -scale full -workers 8
//	lbchat-bench -exp fig2b -telemetry-out events.jsonl
//	lbchat-bench -exp faultsweep -scale test
//
// Experiments: fig2a fig2b recvrate tab2 tab3 tab4 tab5 tab6 tab7 fig3 all,
// plus the extension studies and the faultsweep robustness grid (which
// manages its own fault settings; -faults applies a profile to the others).
// Scales: test (seconds), bench (minutes), full (paper scale: 32 vehicles).
// Every experiment reports its wall-clock time. Results are bit-identical
// at every -workers setting.
// SIGINT cancels at the next engine tick and reports partial results.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"lbchat/cmd/internal/cli"
	"lbchat/internal/experiments"
	"lbchat/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "lbchat-bench: %v\n", err)
		os.Exit(1)
	}
}

// errCanceled stops the experiment sequence after a partial run.
var errCanceled = fmt.Errorf("canceled: partial results above")

func run() error {
	expFlag := flag.String("exp", "all", "comma-separated experiments: fig2a,fig2b,recvrate,tab2,tab3,tab4,tab5,tab6,tab7,fig3,all; extensions: routeshare,methods,adaptive,hetero,quant,faultsweep; scale workload: fleetscan")
	vehiclesFlag := flag.Int("vehicles", 0, "fleet size for -exp fleetscan (0 = 2048)")
	durationFlag := flag.Float64("duration", 0, "virtual seconds for -exp fleetscan (0 = 60)")
	common := cli.Register(flag.CommandLine)
	flag.Parse()

	scale, err := common.Scale()
	if err != nil {
		return err
	}
	if err := common.ApplyTrace(&scale); err != nil {
		return err
	}
	sink, err := common.OpenSink()
	if err != nil {
		return err
	}
	fcfg, err := common.Faults()
	if err != nil {
		return err
	}
	ctx, stop := cli.SignalContext()
	defer stop()

	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	selected := func(name string) bool { return all || want[name] }

	// The fleetscan scale workload runs before (and without) the environment
	// build: a 10k-vehicle synthetic fleet needs no datasets or eval suite,
	// and building them at that size would dwarf the measurement.
	if want["fleetscan"] {
		delete(want, "fleetscan")
		if err := timedFleetScan(ctx, *vehiclesFlag, *durationFlag, common); err != nil {
			return err
		}
		if len(want) == 0 {
			return common.CloseSink(sink)
		}
	}

	fmt.Printf("Building environment (scale=%s: %d vehicles, %d frames/vehicle, %.0fs training, workers=%s)...\n",
		scale.Name, scale.Vehicles, scale.CollectTicks, scale.TrainDuration, cli.WorkersLabel(common.Workers))
	buildStart := time.Now()
	env, err := experiments.BuildEnv(scale)
	if err != nil {
		return err
	}
	defer env.Close()
	env.Cfg.Faults = fcfg
	fmt.Printf("-- environment built in %s\n", time.Since(buildStart).Round(time.Millisecond))

	// timed runs one experiment and reports its wall-clock, so scale and
	// worker-count choices can be compared run to run.
	timed := func(name string, fn func() error) error {
		start := time.Now()
		if err := fn(); err != nil {
			if err == errCanceled {
				return err
			}
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("-- %s finished in %s\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}
	// runExp trains/evaluates one Run-API experiment and prints its table
	// plus the communication-efficiency report for the runs it performed.
	runExp := func(name, header, experiment string, lossless bool) error {
		return timed(name, func() error {
			fmt.Printf("\n=== %s ===\n", header)
			res, err := experiments.Run(ctx, experiments.Spec{
				Experiment: experiment, Lossless: lossless, Env: env, Telemetry: sink,
			})
			if err != nil {
				return err
			}
			if res.Table != nil {
				fmt.Print(res.Table.Render())
			}
			fmt.Print(experiments.CommTable(res.Runs).Render())
			if res.Canceled {
				return errCanceled
			}
			return nil
		})
	}

	// Fig. 2 runs are shared with Tables II/III and the receive rates.
	var runsLossless, runsLossy []*experiments.ProtocolRun
	needLossless := selected("fig2a") || selected("tab2")
	needLossy := selected("fig2b") || selected("tab3") || selected("recvrate")

	trainAll := func(lossless bool, into *[]*experiments.ProtocolRun) error {
		regime := "W/O wireless loss"
		if !lossless {
			regime = "W wireless loss"
		}
		fmt.Printf("\n== Training all protocols (%s)...\n", regime)
		return timed("training ("+regime+")", func() error {
			res, err := experiments.Run(ctx, experiments.Spec{
				Experiment: experiments.ExpFig2, Lossless: lossless, Env: env, Telemetry: sink,
			})
			if err != nil {
				return err
			}
			*into = res.Runs
			fmt.Printf("\n=== Communication efficiency (%s) ===\n", regime)
			fmt.Print(experiments.CommTable(res.Runs).Render())
			if res.Canceled {
				return errCanceled
			}
			return nil
		})
	}
	if needLossless {
		if err := trainAll(true, &runsLossless); err != nil {
			return err
		}
	}
	if needLossy {
		if err := trainAll(false, &runsLossy); err != nil {
			return err
		}
	}

	plot := func(runs []*experiments.ProtocolRun) string {
		curves := make([]*metrics.Curve, len(runs))
		for i := range runs {
			curves[i] = &runs[i].Curve
		}
		return metrics.PlotCurves(72, 18, curves...)
	}
	if selected("fig2a") {
		fmt.Println("\n=== Figure 2(a): training loss vs time, W/O wireless loss ===")
		fmt.Print(plot(runsLossless))
		fmt.Print(experiments.RenderCurves(runsLossless))
	}
	if selected("fig2b") {
		fmt.Println("\n=== Figure 2(b): training loss vs time, W wireless loss ===")
		fmt.Print(plot(runsLossy))
		fmt.Print(experiments.RenderCurves(runsLossy))
	}
	if selected("recvrate") {
		fmt.Println("\n=== §IV-C: successful model receiving rate ===")
		fmt.Print(experiments.RenderReceiveRates(experiments.ReceiveRates(runsLossy)))
	}
	if selected("tab2") {
		if err := timed("Table II", func() error {
			fmt.Println("\n=== Table II (driving success rate, W/O wireless loss) ===")
			rates := env.SuccessRates(runsLossless)
			fmt.Print(env.SuccessTable("", experiments.BenchmarkProtocols, rates).Render())
			return nil
		}); err != nil {
			return err
		}
	}
	if selected("tab3") {
		if err := timed("Table III", func() error {
			fmt.Println("\n=== Table III (driving success rate, W wireless loss) ===")
			rates := env.SuccessRates(runsLossy)
			fmt.Print(env.SuccessTable("", experiments.BenchmarkProtocols, rates).Render())
			return nil
		}); err != nil {
			return err
		}
	}
	if selected("tab4") {
		if err := runExp("Table IV", "Table IV (coreset-size sweep)", experiments.ExpTable4, false); err != nil {
			return err
		}
	}
	if selected("tab5") {
		if err := runExp("Table V", "Table V (equal compression ablation)", experiments.ExpTable5, false); err != nil {
			return err
		}
	}
	if selected("tab6") {
		if err := runExp("Table VI", "Table VI (average aggregation ablation)", experiments.ExpTable6, false); err != nil {
			return err
		}
	}
	if selected("tab7") {
		if err := runExp("Table VII", "Table VII (sharing coreset only)", experiments.ExpTable7, false); err != nil {
			return err
		}
	}
	if want["routeshare"] {
		if err := runExp("route-sharing study", "Extension: route-sharing (Eq. 5) ablation", experiments.ExpRouteShare, false); err != nil {
			return err
		}
	}
	if want["methods"] {
		if err := runExp("coreset-method study", "Extension: coreset construction methods (§V)", experiments.ExpMethods, true); err != nil {
			return err
		}
	}
	if want["hetero"] {
		if err := runExp("heterogeneity study", "Extension: bandwidth heterogeneity (footnote 1 future work)", experiments.ExpHetero, true); err != nil {
			return err
		}
	}
	if want["quant"] {
		if err := runExp("compression-scheme study", "Extension: compression schemes (top-k vs quantization)", experiments.ExpQuant, true); err != nil {
			return err
		}
	}
	if want["adaptive"] {
		if err := runExp("adaptive-coreset study", "Extension: adaptive coreset sizing (future work)", experiments.ExpAdaptive, true); err != nil {
			return err
		}
	}
	if want["faultsweep"] {
		if err := runExp("fault sweep", "Robustness: fault sweep (burst loss x churn, with vs without resumption)", experiments.ExpFaultSweep, false); err != nil {
			return err
		}
	}
	if selected("fig3") {
		if err := timed("Figure 3", func() error {
			fmt.Println("\n=== Figure 3 (LbChat vs SCO) ===")
			res, err := experiments.Run(ctx, experiments.Spec{
				Experiment: experiments.ExpFig3, Lossless: true, Env: env, Telemetry: sink,
			})
			if err != nil {
				return err
			}
			lb, sco := res.Runs[0], res.Runs[1]
			fmt.Print(metrics.PlotCurves(72, 18, &lb.Curve, &sco.Curve))
			fmt.Print(lb.Curve.Render())
			fmt.Print(sco.Curve.Render())
			fmt.Printf("SCO convergence slowdown vs LbChat: %.2fx (paper: 1.5-1.8x)\n", res.Ratio)
			fmt.Print(experiments.CommTable(res.Runs).Render())
			if res.Canceled {
				return errCanceled
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return common.CloseSink(sink)
}

// timedFleetScan runs the fleetscan scale workload at the flagged size and
// prints its wall-clock/peak-heap table.
func timedFleetScan(ctx context.Context, vehicles int, duration float64, common *cli.Common) error {
	fmt.Printf("\n=== Fleet scan scale workload (workers=%s) ===\n", cli.WorkersLabel(common.Workers))
	start := time.Now()
	res, err := experiments.Run(ctx, experiments.Spec{
		Experiment: experiments.ExpFleetScan,
		Vehicles:   vehicles,
		Duration:   duration,
		Workers:    common.Workers,
		Seed:       common.Seed,
	})
	if err != nil {
		return fmt.Errorf("fleetscan: %w", err)
	}
	fmt.Print(res.Table.Render())
	fmt.Printf("-- fleetscan finished in %s\n", time.Since(start).Round(time.Millisecond))
	if res.Canceled {
		return errCanceled
	}
	return nil
}
