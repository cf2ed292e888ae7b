// Command lbchat-eval runs the paper's online evaluation (§IV-D): it trains
// a fleet under a chosen protocol and deploys the trained models on a
// testing autopilot over the CARLA-style driving benchmark — Straight, One
// Turn, and full navigation with empty, normal, and dense traffic —
// printing the driving success rate per condition.
//
// Usage:
//
//	lbchat-eval -protocol LbChat -trials 16
//	lbchat-eval -protocol DP -wireless-loss -telemetry-out events.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"lbchat/cmd/internal/cli"
	"lbchat/internal/eval"
	"lbchat/internal/experiments"
	"lbchat/internal/model"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "lbchat-eval: %v\n", err)
		os.Exit(1)
	}
}

func run(fs *flag.FlagSet, args []string) error {
	protocol := fs.String("protocol", "LbChat",
		fmt.Sprintf("protocol, one of %v", experiments.Protocols))
	vehicles := fs.Int("vehicles", 8, "expert fleet size")
	duration := fs.Float64("duration", 1800, "virtual training duration (s)")
	trials := fs.Int("trials", 16, "driving trials per condition")
	lossy := fs.Bool("wireless-loss", false, "enable the distance-based wireless loss model")
	loadDir := fs.String("load-fleet", "", "skip training: load model blobs saved by lbchat-sim -save-fleet")
	common := cli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale, err := common.Scale()
	if err != nil {
		return err
	}
	scale.Vehicles = *vehicles
	scale.TrainDuration = *duration
	scale.EvalTrials = *trials
	if err := common.ApplyTrace(&scale); err != nil {
		return err
	}
	fcfg, err := common.Faults()
	if err != nil {
		return err
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	fmt.Printf("Building environment (%d vehicles)...\n", scale.Vehicles)
	env, err := experiments.BuildEnv(scale)
	if err != nil {
		return err
	}
	defer env.Close()
	var fleet []*model.Policy
	if *loadDir != "" {
		blobs, err := filepath.Glob(filepath.Join(*loadDir, "*.lbp"))
		if err != nil {
			return err
		}
		if len(blobs) == 0 {
			return fmt.Errorf("no .lbp model blobs in %s", *loadDir)
		}
		sort.Strings(blobs)
		// Every blob overwrites all parameters, so one built policy's
		// shape serves them all.
		shape, err := model.New(env.Cfg.Model, 0)
		if err != nil {
			return err
		}
		for _, path := range blobs {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			pol := shape.Clone()
			if err := pol.UnmarshalBinary(raw); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			fleet = append(fleet, pol)
		}
		fmt.Printf("Loaded %d models from %s\n", len(fleet), *loadDir)
	} else {
		sink, err := common.OpenSink()
		if err != nil {
			return err
		}
		defer common.CloseSink()
		fmt.Printf("Training fleet under %s (%.0fs virtual, wireless loss: %v)...\n",
			*protocol, *duration, *lossy)
		res, err := experiments.Run(ctx, experiments.Spec{
			Experiment: experiments.ExpProtocol,
			Protocol:   experiments.ProtocolName(*protocol),
			Lossless:   !*lossy,
			Env:        env,
			Telemetry:  sink,
			Faults:     fcfg,
		})
		if err != nil {
			return err
		}
		run := res.Runs[0]
		if res.Canceled {
			return fmt.Errorf("training canceled")
		}
		fmt.Printf("Final probe loss: %.4f\n", run.Curve.Final())
		fmt.Print(experiments.CommTable(res.Runs).Render())
		if err := common.CloseSink(); err != nil {
			return err
		}
		fleet = run.Fleet
	}

	fmt.Printf("Running driving benchmark (%d trials per condition)...\n", *trials)
	rates := env.EvalFleet(fleet)
	fmt.Printf("\n%-16s %8s\n", "Task", *protocol)
	for _, cond := range eval.Conditions {
		fmt.Printf("%-16s %7.0f%%\n", cond.String(), rates[cond])
	}
	return nil
}
