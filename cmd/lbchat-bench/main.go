// Command lbchat-bench regenerates the paper's tables and figures
// end-to-end: it builds the driving world, collects per-vehicle datasets,
// records mobility traces, and then walks the selected entries of
// experiments.Catalogue in catalogue order — training each entry's arms
// (once per invocation for the entries that share a lineup), printing the
// artefact in the paper's layout and, after each training, a per-arm
// communication-efficiency report (bytes on air vs final loss).
//
// Usage:
//
//	lbchat-bench -exp all -scale bench
//	lbchat-bench -exp fig2a,tab2 -scale full -workers 8
//	lbchat-bench -exp fig2b -telemetry-out events.jsonl
//	lbchat-bench -exp faultsweep -scale test
//
// -exp takes catalogue names (lbchat-bench -h lists them; DESIGN.md §5
// describes them); "all" is the paper's own evaluation. The faultsweep grid
// manages its own fault settings; -faults applies a profile to the others.
// Scales: test (seconds), bench (minutes), full (paper scale: 32 vehicles).
// Every experiment reports its wall-clock time. Results are bit-identical
// at every -workers setting.
// SIGINT cancels at the next engine tick and reports partial results.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"lbchat/cmd/internal/cli"
	"lbchat/internal/experiments"
	"lbchat/internal/metrics"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "lbchat-bench: %v\n", err)
		os.Exit(1)
	}
}

// selectable lists the catalogue entries -exp accepts and their names: all
// but the single-protocol run, whose arm comes from flags only lbchat-sim
// and lbchat-eval have.
func selectable() (entries []*experiments.Experiment, names string) {
	for i := range experiments.Catalogue {
		if x := &experiments.Catalogue[i]; x.Name != experiments.ExpProtocol {
			entries = append(entries, x)
			names += x.Name + ","
		}
	}
	return entries, names + "all"
}

// selection resolves an -exp value against the catalogue: the named
// entries, "all" standing for the paper's, in catalogue order whatever the
// flag's. A token that names no entry is an error.
func selection(exp string) ([]*experiments.Experiment, error) {
	want := map[string]bool{}
	for _, tok := range strings.Split(exp, ",") {
		want[strings.TrimSpace(tok)] = true
	}
	entries, names := selectable()
	var sel []*experiments.Experiment
	for _, x := range entries {
		if want[x.Name] || want["all"] && x.Paper {
			sel = append(sel, x)
		}
		delete(want, x.Name)
	}
	delete(want, "all")
	if len(want) > 0 {
		return nil, fmt.Errorf("unknown experiment %q (known: %s)", metrics.SortedKeys(want), names)
	}
	return sel, nil
}

// trains reports whether an entry trains arms, and so needs the environment.
func trains(x *experiments.Experiment) bool { return x.Name != experiments.ExpFleetScan }

func run(fs *flag.FlagSet, args []string) error {
	_, names := selectable()
	expFlag := fs.String("exp", "all", "comma-separated experiments (all = the paper's tables and figures): "+names)
	vehiclesFlag := fs.Int("vehicles", 0, fmt.Sprintf("fleet size for -exp %s (0 = 2048)", experiments.ExpFleetScan))
	durationFlag := fs.Float64("duration", 0, fmt.Sprintf("virtual seconds for -exp %s (0 = 60)", experiments.ExpFleetScan))
	common := cli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sel, err := selection(*expFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lbchat-bench: %v\n", err)
		os.Exit(2)
	}
	scale, err := common.Scale()
	if err != nil {
		return err
	}
	if err := common.ApplyTrace(&scale); err != nil {
		return err
	}
	fcfg, err := common.Faults()
	if err != nil {
		return err
	}
	sink, err := common.OpenSink()
	if err != nil {
		return err
	}
	defer common.CloseSink()
	ctx, stop := cli.SignalContext()
	defer stop()

	// The environment is built only for entries that train: a 10k-vehicle
	// synthetic fleet needs no datasets or eval suite, and building them at
	// that size would dwarf the measurement.
	var env *experiments.Env
	if slices.ContainsFunc(sel, trains) {
		fmt.Printf("Building environment (scale=%s: %d vehicles, %d frames/vehicle, %.0fs training, workers=%s)...\n",
			scale.Name, scale.Vehicles, scale.CollectTicks, scale.TrainDuration, cli.WorkersLabel(common.Workers))
		buildStart := time.Now()
		if env, err = experiments.BuildEnv(scale); err != nil {
			return err
		}
		defer env.Close()
		env.Cfg.Faults = fcfg
		env.Telemetry = sink
		fmt.Printf("-- environment built in %s\n", time.Since(buildStart).Round(time.Millisecond))
	}

	// Each experiment reports its wall-clock, so scale and worker-count
	// choices can be compared run to run. A lineup several entries report on
	// is trained, under its own header, by the first of them selected; the
	// communication-efficiency report follows whatever was just trained.
	lineups := map[string][]*experiments.ProtocolRun{}
	for _, x := range sel {
		start := time.Now()
		var res *experiments.Result
		var comm string
		if !trains(x) {
			res, err = experiments.Run(ctx, experiments.Spec{
				Experiment: x.Name,
				Vehicles:   *vehiclesFlag,
				Duration:   *durationFlag,
				Workers:    common.Workers,
				Seed:       common.Seed,
			})
		} else if runs, ok := lineups[x.Lineup]; ok {
			res = x.Report(env, runs)
		} else {
			if x.Lineup != "" {
				fmt.Printf("\n== Training %s...\n", x.Lineup)
			}
			if runs, err = x.Train(ctx, env); err == nil {
				res = x.Report(env, runs)
				comm = experiments.CommTable(runs).Render()
				if x.Lineup != "" {
					lineups[x.Lineup] = runs
					fmt.Printf("\n=== Communication efficiency (%s) ===\n%s", x.Lineup, comm)
					comm = ""
				}
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", x.Name, err)
		}
		fmt.Printf("\n=== %s ===\n%s%s", x.Title, res.Text, comm)
		fmt.Printf("-- %s finished in %s (workers=%s)\n", x.Name,
			time.Since(start).Round(time.Millisecond), cli.WorkersLabel(common.Workers))
		if res.Canceled {
			return fmt.Errorf("canceled: partial results above")
		}
	}
	return common.CloseSink()
}
