// Command lbchat-bench regenerates the paper's tables and figures
// end-to-end: it builds the driving world, collects per-vehicle datasets,
// records mobility traces, and then walks the selected entries of
// experiments.Catalogue in catalogue order through experiments.Run on one
// environment (whose run memo trains an arm several entries share once),
// printing each artefact in the paper's layout and a per-arm communication
// report (bytes on air vs final loss) unless an entry printed it already.
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
// has.
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

func run(fs *flag.FlagSet, args []string) error {
	_, names := selectable()
	expFlag := fs.String("exp", "all", "comma-separated experiments (all = the paper's tables and figures): "+names)
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

	fmt.Printf("Building environment (scale=%s: %d vehicles, %d frames/vehicle, %.0fs training, workers=%s)...\n",
		scale.Name, scale.Vehicles, scale.CollectTicks, scale.TrainDuration, cli.WorkersLabel(common.Workers))
	buildStart := time.Now()
	env, err := experiments.BuildEnv(scale)
	if err != nil {
		return err
	}
	defer env.Close()
	env.Telemetry = sink
	env.Cfg.Faults = fcfg
	fmt.Printf("-- environment built in %s\n", time.Since(buildStart).Round(time.Millisecond))

	// Each experiment reports its wall-clock, so scale and worker-count
	// choices can be compared run to run. Entries that read one lineup
	// print its communication report once.
	printed := map[string]bool{}
	for _, x := range sel {
		start := time.Now()
		res, err := experiments.Run(ctx, env, experiments.Spec{Experiment: x.Name})
		if err != nil {
			return fmt.Errorf("%s: %w", x.Name, err)
		}
		comm := experiments.CommTable(res.Runs).Render()
		if len(res.Runs) == 0 || printed[comm] {
			comm = ""
		}
		printed[comm] = true
		fmt.Printf("\n=== %s ===\n%s%s", x.Title, res.Text, comm)
		fmt.Printf("-- %s finished in %s (workers=%s)\n", x.Name,
			time.Since(start).Round(time.Millisecond), cli.WorkersLabel(common.Workers))
		if res.Canceled {
			return fmt.Errorf("canceled: partial results above")
		}
	}
	return common.CloseSink()
}
