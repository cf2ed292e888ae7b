// Package cli collects the flag handling shared by the lbchat commands so
// -seed, -workers, -scale, -faults, -telemetry-out and -trace-file parse and
// behave identically everywhere.
package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"lbchat/internal/experiments"
	"lbchat/internal/faults"
	"lbchat/internal/telemetry"
	"lbchat/internal/tensor"
	"lbchat/internal/trace"
)

// Common holds the parsed shared flags.
type Common struct {
	// Seed is the root random seed (-seed). It only overrides the scale's
	// own seed when the flag was given explicitly, so e.g. -scale test
	// keeps its historical seed by default.
	Seed uint64
	// Workers bounds parallelism at every level (-workers); 0 = one per
	// CPU, 1 = serial. Results are bit-identical at any setting.
	Workers int
	// ScaleName names the experiment scale (-scale): test, bench, full.
	ScaleName string
	// TelemetryOut is the JSONL event-stream output path (-telemetry-out);
	// empty disables the stream sink.
	TelemetryOut string
	// FaultsName names the fault-injection profile (-faults): off, light,
	// heavy (internal/faults). Resolve it with Faults.
	FaultsName string
	// TraceFile takes the mobility trace from this LBTC file (-trace-file,
	// e.g. a worldgen -trace-out recording) instead of recording one; the
	// vehicle count is taken from the file, and the file's decoded size
	// decides whether it is held resident or paged through a sliding window
	// (results are bit-identical either way). Resolve it with ApplyTrace.
	TraceFile string

	fs   *flag.FlagSet
	sink telemetry.Sink // the open -telemetry-out sink; nil once closed
}

// Register installs the shared flags on fs and returns the struct they
// parse into.
func Register(fs *flag.FlagSet) *Common {
	c := &Common{fs: fs}
	fs.Uint64Var(&c.Seed, "seed", 7, "root random seed (default: the scale's own seed)")
	fs.IntVar(&c.Workers, "workers", 0,
		"parallel workers at every level (0 = one per CPU, 1 = serial); results are bit-identical at any setting")
	fs.StringVar(&c.ScaleName, "scale", "bench", "experiment scale: test, bench, or full")
	fs.StringVar(&c.TelemetryOut, "telemetry-out", "",
		"write the run's telemetry event stream as JSONL to this file")
	fs.StringVar(&c.FaultsName, "faults", "off",
		"fault-injection profile: off, light, or heavy (burst loss, window truncation, churn, corruption)")
	fs.StringVar(&c.TraceFile, "trace-file", "",
		"take the mobility trace from this LBTC file (see worldgen -trace-out) instead of recording one; large files are paged through a bounded window")
	return c
}

// Faults resolves the -faults profile name into a fault-injection config;
// "off" (the default) returns the zero config, which disables injection.
func (c *Common) Faults() (faults.Config, error) {
	return faults.ByName(c.FaultsName)
}

// Scale resolves -scale with the -seed and -workers overrides applied, and
// configures tensor-level parallelism to match.
func (c *Common) Scale() (experiments.Scale, error) {
	scale, err := experiments.ScaleByName(c.ScaleName)
	if err != nil {
		return experiments.Scale{}, err
	}
	if c.flagSet("seed") {
		scale.Seed = c.Seed
	}
	scale.Workers = c.Workers
	tensor.SetWorkers(c.Workers)
	return scale, nil
}

// ApplyTrace resolves -trace-file onto the scale. The file is probed once
// for its stream metadata, through its LBTC header and chunk index, and
// recorded as Scale.TracePath for the experiment layer to open (resident or
// windowed by its size). The scale's vehicle count and trace length are
// taken from the file, so a command's -vehicles or -trace-ticks, which only
// size recorded traces, is an error when given with it. Without the flag
// the scale is untouched.
func (c *Common) ApplyTrace(scale *experiments.Scale) error {
	if c.TraceFile == "" {
		return nil
	}
	if err := c.Refuse("trace-file", "vehicles", "trace-ticks"); err != nil {
		return err
	}
	probe, err := trace.OpenFileSource(c.TraceFile)
	if err != nil {
		return err
	}
	probe.Close()
	scale.TracePath = c.TraceFile
	scale.Vehicles, scale.TraceTicks = probe.NumVehicles(), probe.NumTicks()
	return nil
}

// Refuse returns an error naming every flag among names — shared or the
// command's own — that was given explicitly, since the flag named by cause
// leaves them without effect; nil when none was. A command calls it before
// it creates a file or builds an environment.
func (c *Common) Refuse(cause string, names ...string) error {
	var given []string
	for _, name := range names {
		if c.flagSet(name) {
			given = append(given, "-"+name)
		}
	}
	if len(given) == 0 {
		return nil
	}
	return fmt.Errorf("%s would be ignored with -%s; drop it", strings.Join(given, ", "), cause)
}

// flagSet reports whether the named flag was given explicitly.
func (c *Common) flagSet(name string) bool {
	set := false
	c.fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// OpenSink opens the -telemetry-out JSONL sink, or returns nil when the
// flag is unset. Creating the file truncates it, so a command resolves every
// other flag first — a bad one must fail before a previous recording is
// lost — and defers CloseSink right after, so an error return still flushes
// and closes the stream.
func (c *Common) OpenSink() (telemetry.Sink, error) {
	if c.TelemetryOut == "" {
		return nil, nil
	}
	f, err := os.Create(c.TelemetryOut)
	if err != nil {
		return nil, fmt.Errorf("opening -telemetry-out: %w", err)
	}
	c.sink = telemetry.NewJSONL(f)
	return c.sink, nil
}

// CloseSink closes the sink OpenSink opened and reports where the stream
// went. Without an open sink — none was asked for, or it is already closed —
// it does nothing, so the deferred call after an explicit one is a no-op.
func (c *Common) CloseSink() error {
	if c.sink == nil {
		return nil
	}
	sink := c.sink
	c.sink = nil
	if err := sink.Close(); err != nil {
		return fmt.Errorf("closing -telemetry-out: %w", err)
	}
	fmt.Printf("Wrote telemetry event stream to %s\n", c.TelemetryOut)
	return nil
}

// SignalContext returns a context canceled on SIGINT/SIGTERM, so long
// experiment runs stop at the next engine tick and report partial results.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// WorkersLabel formats a worker count for output ("auto" for 0).
func WorkersLabel(n int) string {
	if n <= 0 {
		return "auto"
	}
	return fmt.Sprintf("%d", n)
}
