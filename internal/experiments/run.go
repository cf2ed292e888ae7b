package experiments

import (
	"context"
	"fmt"

	"lbchat/internal/core"
	"lbchat/internal/faults"
	"lbchat/internal/metrics"
	"lbchat/internal/telemetry"
)

// Spec selects and parameterizes one experiment for Run. The zero value
// trains LbChat at bench scale in the lossy regime.
type Spec struct {
	// Experiment names the Catalogue entry to run; "" means ExpProtocol.
	Experiment string
	// Protocol, Lossless and Config describe ExpProtocol's one arm: the
	// protocol to train ("" = LbChat), its wireless regime, and an optional
	// adjustment of its engine config. Every other experiment fixes its own
	// arms and ignores the three.
	Protocol ProtocolName
	Lossless bool
	Config   func(*core.Config)
	// Scale is the scale to build the environment at (nil = BenchScale).
	// Ignored when Env is set.
	Scale *Scale
	// Seed, Vehicles, Duration and Workers size ExpFleetScan, which has no
	// environment to take them from (0 = seed 1, 2048 vehicles, 60 s, one
	// worker per CPU). Every other experiment reads its Scale.
	Seed     uint64
	Vehicles int
	Duration float64
	Workers  int
	// Telemetry, when non-nil, receives every run's full event stream in
	// deterministic order (see Env.Telemetry). The caller owns Close.
	Telemetry telemetry.Sink
	// Faults configures fault injection (internal/faults) for every engine
	// run the experiment performs; the zero value leaves faults off. It is
	// applied to the environment's engine config, so it reaches every arm
	// that does not set its own (the faultsweep entry's do).
	Faults faults.Config
	// Env reuses a prebuilt environment instead of building one from the
	// scale fields (which are then ignored). Its Telemetry field is
	// overwritten when Spec.Telemetry is set.
	Env *Env
}

// Result is the typed outcome of Run.
type Result struct {
	// Runs holds every protocol run the experiment performed, in arm
	// order. Each carries its loss curve, receive stats, final fleet, and
	// telemetry summary.
	Runs []*ProtocolRun
	// Table holds the experiment's numbers, one cell per reported quantity.
	// Nil when the experiment was canceled before evaluation.
	Table *metrics.Table
	// Text is the artefact as lbchat-bench prints it: the rendered table,
	// or the plotted loss curves for the figures. Empty when canceled.
	Text string
	// Canceled reports that the context was canceled: Runs hold partial
	// state and downstream evaluation was skipped.
	Canceled bool
}

// ScaleByName resolves the named experiment scale: "test", "bench", or
// "full".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "test":
		return TestScale(), nil
	case "bench":
		return BenchScale(), nil
	case "full":
		return FullScale(), nil
	default:
		return Scale{}, fmt.Errorf("experiments: unknown scale %q", name)
	}
}

// Run is the unified experiment entrypoint: it looks the Spec's experiment
// up in the Catalogue, resolves an environment, trains the entry's arms
// under ctx and reports them. Cancellation is honored once per engine tick;
// a canceled experiment returns the partial Result with Canceled set and a
// nil error.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	if spec.Experiment == "" {
		spec.Experiment = ExpProtocol
	}
	x, err := Lookup(spec.Experiment)
	if err != nil {
		return nil, err
	}
	// The fleetscan scale workload builds no environment (a 10k-vehicle
	// dataset collection would dwarf the measurement), so it short-circuits
	// before scale resolution.
	if x.Name == ExpFleetScan {
		return runFleetScan(ctx, x, spec)
	}
	env := spec.Env
	if env == nil {
		scale := BenchScale()
		if spec.Scale != nil {
			scale = *spec.Scale
		}
		if env, err = BuildEnv(scale); err != nil {
			return nil, err
		}
		// Run owns the env it built: release trace resources (window file
		// handles, temporary stream spills) once the experiment completes.
		// Caller-supplied envs stay open — the caller closes them.
		defer env.Close()
	}
	if spec.Telemetry != nil {
		env.Telemetry = spec.Telemetry
	}
	if spec.Faults.Enabled() {
		env.Cfg.Faults = spec.Faults
	}
	if x.Name == ExpProtocol {
		name := spec.Protocol
		if name == "" {
			name = ProtoLbChat
		}
		one := *x
		one.Arms = []Arm{{Label: string(name), Protocol: name, Lossless: spec.Lossless, Config: spec.Config}}
		x = &one
	}
	runs, err := x.Train(ctx, env)
	if err != nil {
		return nil, err
	}
	return x.Report(env, runs), nil
}

// CommTable renders the communication-efficiency report for a set of runs:
// over-the-air byte demand per protocol against the loss it bought — the
// Fig. 6-style tradeoff, from each run's telemetry summary.
func CommTable(runs []*ProtocolRun) *metrics.Table {
	cols := make([]string, 0, len(runs))
	live := make([]*ProtocolRun, 0, len(runs))
	for _, r := range runs {
		if r != nil && r.Comm != nil {
			cols = append(cols, string(r.Name))
			live = append(live, r)
		}
	}
	tbl := metrics.NewTable("Communication efficiency: bytes on air vs final loss", cols...)
	row := func(label string, f func(r *ProtocolRun) float64) {
		tbl.AddRow(label, scalar{label, f}.each(live)...)
	}
	counter := func(label, metric string) {
		row(label, func(r *ProtocolRun) float64 { return float64(r.Comm.Reg.Counter(metric)) })
	}
	const mb = 1.0 / (1 << 20)
	row("chats completed", func(r *ProtocolRun) float64 {
		_, done, _ := r.Comm.Chats()
		return float64(done)
	})
	row("model MB requested", func(r *ProtocolRun) float64 {
		m, _ := r.Comm.BytesRequested()
		return float64(m) * mb
	})
	row("coreset MB requested", func(r *ProtocolRun) float64 {
		_, c := r.Comm.BytesRequested()
		return float64(c) * mb
	})
	row("total MB requested", func(r *ProtocolRun) float64 {
		return float64(r.Comm.TotalBytesRequested()) * mb
	})
	row("total MB delivered", func(r *ProtocolRun) float64 {
		m, c := r.Comm.BytesDelivered()
		return float64(m+c) * mb
	})
	row(recvRate.label, recvRate.of)
	// Resilience rows appear only when some run actually exercised them, so
	// fault-free reports render exactly as before the faults layer existed.
	anyCount := func(metric string) bool {
		for _, r := range live {
			if r.Comm.Reg.Counter(metric) != 0 {
				return true
			}
		}
		return false
	}
	if anyCount(telemetry.MFaultsInjected) {
		counter("faults injected", telemetry.MFaultsInjected)
	}
	if anyCount(telemetry.MChatResumed) {
		counter("chats resumed", telemetry.MChatResumed)
		row("resume MB saved", func(r *ProtocolRun) float64 {
			return float64(r.Comm.Reg.Counter(telemetry.MResumeSavedB)) * mb
		})
	}
	if anyCount(telemetry.MSalvages) {
		counter("partial salvages", telemetry.MSalvages)
	}
	// Coreset-tree rows appear only when a run refreshed a coreset.
	if anyCount(telemetry.MCoresetLeavesRebuilt) || anyCount(telemetry.MCoresetLeavesCached) {
		counter("coreset leaves rebuilt", telemetry.MCoresetLeavesRebuilt)
		counter("coreset leaves cached", telemetry.MCoresetLeavesCached)
		counter("coreset tree merges", telemetry.MCoresetTreeMerges)
	}
	// Streaming-trace rows appear only when a run was driven by a sliding
	// window, so resident-trace reports render exactly as before.
	if anyCount(telemetry.MTraceLoads) {
		counter("trace chunk loads", telemetry.MTraceLoads)
		counter("trace chunk evicts", telemetry.MTraceEvicts)
		counter("trace chunk prefetches", telemetry.MTracePrefetches)
		// Fetch-pipeline rows appear only when some run actually retried or
		// blocked on a fetch — i.e. remote or degraded chunk sources.
		if anyCount(telemetry.MTraceFetchRetries) || anyCount(telemetry.MTraceFetchWaitNs) {
			counter("trace fetch retries", telemetry.MTraceFetchRetries)
			row("trace fetch wait (ms)", func(r *ProtocolRun) float64 {
				return float64(r.Comm.Reg.Counter(telemetry.MTraceFetchWaitNs)) / 1e6
			})
		}
	}
	counter("sched due dequeued", telemetry.MSchedDueDequeued)
	counter("sched buckets touched", telemetry.MSchedBucketsTouched)
	row(finalLoss.label, finalLoss.of)
	return tbl
}
