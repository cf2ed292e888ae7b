// Command lbchat-sim runs one co-simulation: a fleet of vehicles training
// under a chosen protocol over a generated mobility trace, printing the
// probe-loss curve, communication statistics, and the run's
// communication-efficiency summary. With -trials it then runs the paper's
// online evaluation (§IV-D): the trained models drive a testing autopilot
// over the CARLA-style benchmark — Straight, One Turn, and full navigation
// with empty, normal, and dense traffic — and the driving success rate is
// printed per condition. -load-fleet skips training and drives the blobs a
// -save-fleet run wrote, exactly as that run's fleet drives.
//
// Usage:
//
//	lbchat-sim -protocol LbChat -vehicles 8 -duration 1800
//	lbchat-sim -protocol DP -wireless-loss -telemetry-out events.jsonl
//	lbchat-sim -protocol LbChat -wireless-loss -faults light
//	lbchat-sim -protocol DP -trials 16 -save-fleet fleet
//	lbchat-sim -protocol DP -trials 16 -load-fleet fleet
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lbchat/cmd/internal/cli"
	"lbchat/internal/eval"
	"lbchat/internal/experiments"
	"lbchat/internal/metrics"
	"lbchat/internal/model"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "lbchat-sim: %v\n", err)
		os.Exit(1)
	}
}

// trainingFlags shape only the training run, which -load-fleet skips.
var trainingFlags = []string{
	"duration", "vehicles", "wireless-loss", "trace-ticks", "trace-file", "faults",
	"telemetry-out", "summary-out", "json", "save-fleet",
}

func run(fs *flag.FlagSet, args []string) error {
	protocol := fs.String("protocol", "LbChat",
		fmt.Sprintf("protocol, one of %v", experiments.Protocols))
	vehicles := fs.Int("vehicles", 8, "expert fleet size")
	duration := fs.Float64("duration", 1800, "virtual training duration (s)")
	traceTicks := fs.Int("trace-ticks", 0, "mobility-trace length in 0.5s ticks (0 = the scale's default)")
	lossy := fs.Bool("wireless-loss", false, "enable the distance-based wireless loss model")
	saveDir := fs.String("save-fleet", "", "directory to write the trained fleet's model blobs into")
	jsonPath := fs.String("json", "", "write the loss curve and transfer stats as JSON to this file")
	summaryOut := fs.String("summary-out", "",
		"write the run's aggregated telemetry counters and histograms as CSV to this file (see telemetry-lint -summary)")
	trials := fs.Int("trials", 0, "drive the fleet on the driving benchmark, this many trials per condition (0 = no driving)")
	loadDir := fs.String("load-fleet", "",
		"skip training and drive the model blobs -save-fleet wrote into this directory (needs -trials)")
	common := cli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trials < 0 {
		return fmt.Errorf("-trials %d: want 0 or more", *trials)
	}
	if *loadDir != "" {
		if *trials == 0 {
			return errors.New("-load-fleet needs -trials > 0")
		}
		if err := common.Refuse("load-fleet", trainingFlags...); err != nil {
			return err
		}
	}

	scale, err := common.Scale()
	if err != nil {
		return err
	}
	scale.Vehicles = *vehicles
	scale.TrainDuration = *duration
	if *traceTicks > 0 {
		scale.TraceTicks = *traceTicks
	}
	if *trials > 0 {
		scale.EvalTrials = *trials
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

	if *loadDir != "" {
		// Driving reads only the env's suite, scale and model config: build
		// it without training data, trace or probe set.
		scale.CollectTicks, scale.TraceTicks, scale.ProbeFrames = 0, 0, 0
		fmt.Println("Building the driving benchmark...")
	} else {
		fmt.Printf("Building environment: %d vehicles on a %d-tick trace...\n",
			scale.Vehicles, scale.TraceTicks)
		fmt.Printf("Running %s for %.0fs of virtual time (wireless loss: %v)...\n",
			*protocol, *duration, *lossy)
	}
	start := time.Now()
	env, err := experiments.BuildEnv(scale)
	if err != nil {
		return err
	}
	defer env.Close()

	if *loadDir != "" {
		fleet, err := loadFleet(*loadDir, env.Cfg.Model)
		if err != nil {
			return err
		}
		fmt.Printf("Loaded %d models from %s\n", len(fleet), *loadDir)
		drive(env, fleet, *protocol)
		return nil
	}
	env.Telemetry = sink
	env.Cfg.Faults = fcfg
	res, err := experiments.Run(ctx, env, experiments.Spec{
		Experiment: experiments.ExpProtocol,
		Protocol:   experiments.ProtocolName(*protocol),
		Lossless:   !*lossy,
	})
	if err != nil {
		return err
	}
	run := res.Runs[0]
	if res.Canceled {
		fmt.Println("Run canceled: reporting partial results")
	}
	fmt.Printf("Run finished in %s wall-clock\n", time.Since(start).Round(time.Millisecond))

	fmt.Println("\nTraining loss vs virtual time:")
	fmt.Print(run.Curve.Render())
	stats := run.Recv
	if stats.Attempts > 0 {
		fmt.Printf("\nModel transfers: %d attempted, %d received (%.0f%%)\n",
			stats.Attempts, stats.Successes, 100*stats.Rate())
	} else {
		fmt.Println("\nModel transfers: none (coreset-only or no encounters)")
	}
	fmt.Println("\nCommunication efficiency:")
	fmt.Print(experiments.CommTable(res.Runs).Render())
	if err := common.CloseSink(); err != nil {
		return err
	}
	if *summaryOut != "" {
		f, err := os.Create(*summaryOut)
		if err != nil {
			return err
		}
		err = run.Comm.Reg.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing -summary-out: %w", err)
		}
		fmt.Printf("Wrote telemetry summary to %s\n", *summaryOut)
	}
	if *jsonPath != "" {
		payload := struct {
			Protocol string               `json:"protocol"`
			Lossless bool                 `json:"lossless"`
			Curve    metrics.Curve        `json:"curve"`
			Recv     metrics.ReceiveStats `json:"receive"`
		}{*protocol, !*lossy, run.Curve, run.Recv}
		raw, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, raw, 0o644); err != nil {
			return err
		}
		fmt.Printf("Wrote %s\n", *jsonPath)
	}
	if *saveDir != "" {
		if err := saveFleet(*saveDir, run.Fleet); err != nil {
			return err
		}
		fmt.Printf("Saved %d model blobs to %s\n", len(run.Fleet), *saveDir)
	}
	if *trials > 0 {
		if res.Canceled {
			return errors.New("run canceled: the fleet is not driven")
		}
		drive(env, run.Fleet, *protocol)
	}
	return nil
}

// drive runs the fleet on the driving benchmark, env.Scale.EvalTrials trials
// per condition, and prints the success rate per condition under a column
// labelled by the protocol.
func drive(env *experiments.Env, fleet []*model.Policy, protocol string) {
	fmt.Printf("Running driving benchmark (%d trials per condition)...\n", env.Scale.EvalTrials)
	rates := env.EvalFleet(fleet)
	fmt.Printf("\n%-16s %8s\n", "Task", protocol)
	for _, cond := range eval.Conditions {
		fmt.Printf("%-16s %7.0f%%\n", cond.String(), rates[cond])
	}
}

// blobPath names vehicle i's model blob in a fleet directory.
func blobPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("vehicle-%02d.lbp", i))
}

// saveFleet writes one model blob per vehicle, in fleet order.
func saveFleet(dir string, fleet []*model.Policy) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, pol := range fleet {
		blob, err := pol.MarshalBinary()
		if err != nil {
			return err
		}
		if err := os.WriteFile(blobPath(dir, i), blob, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// loadFleet reads the blobs saveFleet wrote, vehicle 0 first, up to the
// first index without one. Every blob overwrites all parameters, so one
// built policy's shape serves them all.
func loadFleet(dir string, cfg model.Config) ([]*model.Policy, error) {
	shape, err := model.New(cfg, 0)
	if err != nil {
		return nil, err
	}
	var fleet []*model.Policy
	for i := 0; ; i++ {
		path := blobPath(dir, i)
		raw, err := os.ReadFile(path)
		if errors.Is(err, os.ErrNotExist) && i > 0 {
			return fleet, nil
		}
		if err != nil {
			return nil, err
		}
		pol := shape.Clone()
		if err := pol.UnmarshalBinary(raw); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		fleet = append(fleet, pol)
	}
}
