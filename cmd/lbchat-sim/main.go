// Command lbchat-sim runs one co-simulation: a fleet of vehicles training
// under a chosen protocol over a generated mobility trace, printing the
// probe-loss curve, communication statistics, and the run's
// communication-efficiency summary.
//
// Usage:
//
//	lbchat-sim -protocol LbChat -vehicles 8 -duration 1800
//	lbchat-sim -protocol DP -wireless-loss -telemetry-out events.jsonl
//	lbchat-sim -protocol LbChat -wireless-loss -faults light
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lbchat/cmd/internal/cli"
	"lbchat/internal/experiments"
	"lbchat/internal/metrics"
)

func main() {
	if err := run(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "lbchat-sim: %v\n", err)
		os.Exit(1)
	}
}

func run(fs *flag.FlagSet, args []string) error {
	protocol := fs.String("protocol", "LbChat",
		fmt.Sprintf("protocol, one of %v", experiments.Protocols))
	vehicles := fs.Int("vehicles", 8, "expert fleet size")
	duration := fs.Float64("duration", 1800, "virtual training duration (s)")
	traceTicks := fs.Int("trace-ticks", 0, "mobility-trace length in 0.5s ticks (0 = the scale's default)")
	lossy := fs.Bool("wireless-loss", false, "enable the distance-based wireless loss model")
	logChats := fs.Bool("log-chats", false, "trace every pairwise chat decision to stderr")
	saveDir := fs.String("save-fleet", "", "directory to write the trained fleet's model blobs into")
	jsonPath := fs.String("json", "", "write the loss curve and transfer stats as JSON to this file")
	summaryOut := fs.String("summary-out", "",
		"write the run's aggregated telemetry counters and histograms as CSV to this file (see telemetry-lint -summary)")
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
	if *traceTicks > 0 {
		scale.TraceTicks = *traceTicks
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

	fmt.Printf("Building environment: %d vehicles on a %d-tick trace...\n",
		scale.Vehicles, scale.TraceTicks)
	fmt.Printf("Running %s for %.0fs of virtual time (wireless loss: %v)...\n",
		*protocol, *duration, *lossy)
	start := time.Now()
	env, err := experiments.BuildEnv(scale)
	if err != nil {
		return err
	}
	defer env.Close()
	env.Telemetry = sink
	env.Cfg.Faults = fcfg
	env.Cfg.LogChats = *logChats
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
		if err := os.MkdirAll(*saveDir, 0o755); err != nil {
			return err
		}
		for i, pol := range run.Fleet {
			blob, err := pol.MarshalBinary()
			if err != nil {
				return err
			}
			path := filepath.Join(*saveDir, fmt.Sprintf("vehicle-%02d.lbp", i))
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				return err
			}
		}
		fmt.Printf("Saved %d model blobs to %s\n", len(run.Fleet), *saveDir)
	}
	return nil
}
