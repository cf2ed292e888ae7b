package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"

	"lbchat/internal/baselines"
	"lbchat/internal/bev"
	"lbchat/internal/core"
	"lbchat/internal/dataset"
	"lbchat/internal/eval"
	"lbchat/internal/geom"
	"lbchat/internal/metrics"
	"lbchat/internal/model"
	"lbchat/internal/parallel"
	"lbchat/internal/radio"
	"lbchat/internal/simrand"
	"lbchat/internal/telemetry"
	"lbchat/internal/trace"
	"lbchat/internal/world"
)

// Scale sets the size of every experiment ingredient.
type Scale struct {
	// Name labels output.
	Name string
	// Vehicles is the expert fleet size (the paper runs 32).
	Vehicles int
	// BackgroundCars and Pedestrians populate the data-collection world.
	BackgroundCars, Pedestrians int
	// CollectTicks is the number of 2 fps data-collection ticks (the paper
	// collects for one hour: 7200 ticks).
	CollectTicks int
	// TraceTicks is the number of 2 fps mobility-trace ticks driving
	// encounters (the paper records 120 extra hours).
	TraceTicks int
	// TrainDuration is the co-simulation virtual time (s).
	TrainDuration float64
	// ProbeFrames sizes the held-out probe set for loss curves.
	ProbeFrames int
	// EvalTrials is the trial count per driving condition.
	EvalTrials int
	// EvalFleetSample is how many fleet models are evaluated and averaged
	// per protocol.
	EvalFleetSample int
	// RoutesPerCondition sizes the driving benchmark suite.
	RoutesPerCondition int
	// Seed drives all randomness.
	Seed uint64
	// Workers bounds parallelism at every level: concurrent protocol runs
	// within a harness, per-vehicle work inside each engine tick, and
	// fleet-evaluation rollouts. 0 means one worker per available CPU; 1
	// forces the fully serial paths. Output is bit-identical at any setting.
	Workers int
	// TracePath, when set, takes the mobility trace from this LBTC file
	// (e.g. a worldgen -trace-out recording) instead of recording one from
	// the world. The file's vehicle count must match Vehicles. Whether a
	// recorded or file trace is held resident or paged through a bounded
	// window follows from its decoded size (residentTraceBudget); results
	// are bit-identical either way.
	TracePath string
}

// TestScale is a minimal configuration for unit tests.
func TestScale() Scale {
	return Scale{
		Name:     "test",
		Vehicles: 4, BackgroundCars: 10, Pedestrians: 30,
		CollectTicks: 240, TraceTicks: 1600,
		TrainDuration: 400, ProbeFrames: 48,
		EvalTrials: 4, EvalFleetSample: 1, RoutesPerCondition: 3,
		Seed: 1,
	}
}

// BenchScale is the default benchmark configuration: large enough to show
// the paper's orderings, small enough to regenerate every artifact on one
// CPU core in minutes.
func BenchScale() Scale {
	return Scale{
		Name:     "bench",
		Vehicles: 12, BackgroundCars: 50, Pedestrians: 250,
		CollectTicks: 1500, TraceTicks: 14400,
		TrainDuration: 2400, ProbeFrames: 96,
		EvalTrials: 16, EvalFleetSample: 3, RoutesPerCondition: 8,
		Seed: 7,
	}
}

// FullScale mirrors the paper: 32 expert vehicles, 50 background cars, 250
// pedestrians, long traces.
func FullScale() Scale {
	return Scale{
		Name:     "full",
		Vehicles: 32, BackgroundCars: 50, Pedestrians: 250,
		CollectTicks: 3600, TraceTicks: 28800,
		TrainDuration: 3600, ProbeFrames: 128,
		EvalTrials: 24, EvalFleetSample: 4, RoutesPerCondition: 10,
		Seed: 7,
	}
}

// Env is the shared workload every protocol runs against.
type Env struct {
	Scale Scale
	Map   *world.Map
	// Trace is the env-level mobility trace: the resident trace every run
	// shares, or — when the trace is windowed — a window over chunks that
	// only answers for the stream's shape. Windowed runs do not share it:
	// each opens its own window (a window's cursor only moves forward).
	Trace    *trace.Trace
	Probe    []dataset.Weighted
	Suite    *eval.Suite
	Cfg      core.Config
	datasets []*dataset.Dataset // master copies; runs get fresh clones

	// Telemetry, when non-nil, receives every run's full event stream
	// (e.g. a JSONL sink). Concurrent protocol runs buffer their events
	// and drain them in harness order after the parallel phase, so the
	// sink sees a deterministic stream at any worker count. Per-run
	// aggregate summaries (ProtocolRun.Comm) are collected regardless.
	Telemetry telemetry.Sink

	// memo holds, by runKey, the completed runs that several catalogue arms
	// resolve to, so Train trains each once. Copies of the Env share it, and
	// Train is not safe for concurrent use on one Env.
	memo map[string]*ProtocolRun

	// chunks is the one chunk source every windowed run pages through — an
	// indexed LBTC file, safe for concurrent ReadChunk — and nil when Trace
	// is resident. spill names the temporary LBTC file behind chunks when
	// the env recorded it; Close removes it.
	chunks *trace.IndexedChunkSource
	spill  string
}

// Close releases the env's trace resources: the chunk source and, for
// spilled recordings, the temporary LBTC file. Safe to call on resident envs
// and idempotent.
func (e *Env) Close() error {
	var first error
	if e.chunks != nil {
		first = e.chunks.Close()
		e.chunks = nil
	}
	if e.spill != "" {
		if err := os.Remove(e.spill); err != nil && first == nil {
			first = err
		}
		e.spill = ""
	}
	return first
}

// residentTraceBudget is the decoded size (ticks × vehicles × 16 B) up to
// which a recorded or file trace is held resident; above it the trace is
// recorded to a spill and every run windows the chunk source. TestScale is
// 0.1 MB, bench 2.7 MB, full 14.7 MB; EXPERIMENTS.md's 400 000-tick trace
// (51 MB live, −53 % peak RSS for +9 % wall when windowed) is the side that
// windows. A variable only so tests can reach the windowed side at TestScale.
var residentTraceBudget int64 = 32 << 20

// fitsResident reports whether a trace of the given shape stays under
// residentTraceBudget.
func fitsResident(ticks, vehicles int) bool {
	return int64(ticks)*int64(vehicles)*16 <= residentTraceBudget
}

// envWindow is how env-owned windows are opened: default spans (the engine
// reserves its own lookahead) with background prefetch on.
var envWindow = trace.WindowConfig{Prefetch: true}

// buildTrace resolves the scale's mobility trace into env: at most one
// chunk source (an LBTC file, or none for a trace recorded from the world),
// held resident when its decoded size fits residentTraceBudget and windowed
// otherwise. On error the caller closes env, which releases whatever was
// opened before the failure.
func buildTrace(env *Env, w *world.World) error {
	scale := env.Scale
	switch {
	case scale.TracePath != "":
		file, err := trace.OpenFileSource(scale.TracePath)
		if err != nil {
			return fmt.Errorf("experiments: opening trace: %w", err)
		}
		if fitsResident(file.NumTicks(), file.NumVehicles()) {
			tr, err := trace.Load(file)
			file.Close()
			if err != nil {
				return fmt.Errorf("experiments: reading trace %s: %w", scale.TracePath, err)
			}
			env.Trace = tr
			return nil
		}
		env.chunks = file
	case fitsResident(scale.TraceTicks, len(w.Experts)):
		env.Trace = trace.Record(w, scale.TraceTicks, 0.5)
		return nil
	default:
		// Record through a ChunkWriter straight to a temporary spill so the
		// full trace is never resident.
		f, err := os.CreateTemp("", "lbchat-trace-*.lbtc")
		if err != nil {
			return fmt.Errorf("experiments: creating trace spill: %w", err)
		}
		env.spill = f.Name()
		cw := trace.NewChunkWriter(f, 0.5, len(w.Experts), trace.DefaultChunkTicks)
		err = trace.RecordStream(w, scale.TraceTicks, 0.5, cw)
		if cerr := cw.Close(); err == nil {
			err = cerr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("experiments: spilling trace: %w", err)
		}
		spill, err := trace.OpenFileSource(env.spill)
		if err != nil {
			return fmt.Errorf("experiments: opening trace spill: %w", err)
		}
		env.chunks = spill
	}
	env.Trace = trace.NewWindowSource(env.chunks, envWindow)
	return nil
}

// BuildEnv constructs the workload: generate the map, spawn the fleet,
// collect per-vehicle datasets at 2 fps, record the mobility trace, build
// the held-out probe set and the driving benchmark suite.
func BuildEnv(scale Scale) (*Env, error) {
	m, err := world.NewMap(world.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("experiments: building map: %w", err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = scale.Seed
	cfg.Workers = scale.Workers

	rng := simrand.New(scale.Seed)
	w, err := world.New(m, world.SpawnConfig{
		Experts:        scale.Vehicles,
		BackgroundCars: scale.BackgroundCars,
		Pedestrians:    scale.Pedestrians,
	}, rng.Derive("collect-world"))
	if err != nil {
		return nil, fmt.Errorf("experiments: spawning world: %w", err)
	}
	ras := bev.NewRasterizer(bev.DefaultConfig(), m)
	datasets := world.CollectDataset(w, ras, cfg.Model.NumWaypoints, scale.CollectTicks, 0.5)

	// The paper records additional mobility (beyond the collection hour) to
	// drive encounters; we keep stepping the same world. RecordStream spills
	// the identical positions when the trace is over the resident budget, so
	// windowed and resident envs see the same trajectories bit for bit.
	env := &Env{Scale: scale, Map: m, Cfg: cfg, datasets: datasets, memo: map[string]*ProtocolRun{}}
	if err := buildTrace(env, w); err != nil {
		env.Close()
		return nil, err
	}
	if n := env.Trace.NumVehicles(); n != scale.Vehicles {
		env.Close()
		return nil, fmt.Errorf("experiments: trace has %d vehicles, scale %s wants %d",
			n, scale.Name, scale.Vehicles)
	}
	probe, err := eval.ProbeSet(m, bev.DefaultConfig(), cfg.Model.NumWaypoints, scale.ProbeFrames, scale.Seed+1000)
	if err != nil {
		env.Close()
		return nil, fmt.Errorf("experiments: building probe: %w", err)
	}
	suite, err := eval.BuildSuite(m, eval.SuiteConfig{
		RoutesPerCondition: scale.RoutesPerCondition,
		Seed:               scale.Seed + 2000,
	})
	if err != nil {
		env.Close()
		return nil, fmt.Errorf("experiments: building eval suite: %w", err)
	}
	env.Probe, env.Suite = probe, suite
	return env, nil
}

// FreshDatasets returns per-run dataset clones: protocols expand their local
// datasets in place, so each run starts from pristine copies (sample
// payloads are shared — they are immutable).
func (e *Env) FreshDatasets() []*dataset.Dataset {
	out := make([]*dataset.Dataset, len(e.datasets))
	for i, d := range e.datasets {
		out[i] = dataset.FromWeighted(append([]dataset.Weighted(nil), d.Items()...))
	}
	return out
}

// RSUPositions returns the road-side-unit deployment: a subset of the
// road-cross intersections, as in [29] — RSU coverage is sparse enough that
// vehicles spend real time out of range (every third cross, which on the
// default map leaves coverage holes in both town and rural areas).
func (e *Env) RSUPositions() []geom.Point {
	var out []geom.Point
	crosses := 0
	for _, n := range e.Map.Nodes {
		if len(n.Out) >= 3 {
			if crosses%3 == 0 {
				out = append(out, n.Pos)
			}
			crosses++
		}
	}
	return out
}

// ProtocolName identifies a runnable protocol or variant.
type ProtocolName string

// The protocols and variants of §IV.
const (
	ProtoLbChat    ProtocolName = "LbChat"
	ProtoProxSkip  ProtocolName = "ProxSkip"
	ProtoRSUL      ProtocolName = "RSU-L"
	ProtoDFLDDS    ProtocolName = "DFL-DDS"
	ProtoDP        ProtocolName = "DP"
	ProtoSCO       ProtocolName = "SCO"
	ProtoEqualComp ProtocolName = "LbChat-EqualComp"
	ProtoAvgAgg    ProtocolName = "LbChat-AvgAgg"
	ProtoNoPrio    ProtocolName = "LbChat-NoPrio"
	ProtoAdaptive  ProtocolName = "LbChat-AdaptiveCS"
	ProtoNoResume  ProtocolName = "LbChat-NoResume"
)

// protocolTable lists every runnable protocol and how to construct it: the
// paper's lineup, then the ablations and extension variants. It is the one
// spelling of that list; an arm of the Catalogue resolves through it.
var protocolTable = []protocolEntry{
	{ProtoLbChat, func(*Env) core.Protocol { return core.NewLbChat() }},
	{ProtoProxSkip, func(*Env) core.Protocol { return baselines.NewProxSkip() }},
	{ProtoRSUL, func(e *Env) core.Protocol { return baselines.NewRSUL(e.RSUPositions()) }},
	{ProtoDFLDDS, func(*Env) core.Protocol { return baselines.NewDFLDDS() }},
	{ProtoDP, func(*Env) core.Protocol { return baselines.NewDP() }},
	lbchatEntry(core.SCO),
	lbchatEntry(core.EqualCompression),
	lbchatEntry(core.AverageAggregation),
	lbchatEntry(core.NoPrioritization),
	lbchatEntry(core.AdaptiveCoresetSize),
	lbchatEntry(core.NoResumption),
}

// protocolEntry is one runnable protocol: its name and constructor.
type protocolEntry struct {
	Name ProtocolName
	New  func(*Env) core.Protocol
}

// lbchatEntry is the row of LbChat's arm v, named by the variant.
func lbchatEntry(v core.Variant) protocolEntry {
	return protocolEntry{ProtocolName(v.String()), func(*Env) core.Protocol { return core.NewLbChatVariant(v) }}
}

// Protocols lists the names newProtocol accepts, in table order. The
// -protocol help strings and the unknown-name error are printed from it.
var Protocols = func() []ProtocolName {
	names := make([]ProtocolName, len(protocolTable))
	for i, p := range protocolTable {
		names[i] = p.Name
	}
	return names
}()

// newProtocol constructs a protocol instance by name.
func (e *Env) newProtocol(name ProtocolName) (core.Protocol, error) {
	for _, p := range protocolTable {
		if p.Name == name {
			return p.New(e), nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown protocol %q (known: %v)", name, Protocols)
}

// ProtocolRun is one protocol training run's outputs.
type ProtocolRun struct {
	Name ProtocolName
	// Lossless records the wireless regime the run used.
	Lossless bool
	// Curve is the probe-loss trajectory (Figs. 2–3).
	Curve metrics.Curve
	// Recv aggregates the fleet's model-receive outcomes (§IV-C).
	Recv metrics.ReceiveStats
	// Fleet holds every vehicle's final model.
	Fleet []*model.Policy
	// Comm aggregates the run's telemetry into counters and histograms
	// (chat counts, over-the-air bytes per payload, ψ distribution). It is
	// always collected — the Summary sink is cheap.
	Comm *telemetry.Summary
	// Canceled marks a run cut short by context cancellation. Curve, Recv
	// and Fleet hold the partial state at the stop point.
	Canceled bool

	// events buffers the run's full event stream while the Env has a user
	// sink attached; the harness drains it in deterministic order.
	events *telemetry.MemorySink
}

// RunProtocol trains the fleet under one protocol and wireless regime.
// cfgMut, when non-nil, adjusts the engine config (coreset-size sweeps).
// It always trains afresh on a background context, bypassing the run memo
// that Run and Experiment.Train consult.
func (e *Env) RunProtocol(name ProtocolName, lossless bool, cfgMut func(*core.Config)) (*ProtocolRun, error) {
	run, err := e.runProtocol(context.Background(), name, lossless, cfgMut)
	if err != nil {
		return nil, err
	}
	e.flushRuns(run)
	return run, nil
}

// runKey names what determines an arm's run on this env: the protocol, the
// regime, the applied engine config (its sink excluded: telemetry never
// perturbs a run), the scale, and whether the run streams to a user sink.
func (e *Env) runKey(a Arm) string {
	cfg := e.Cfg
	if a.Config != nil {
		a.Config(&cfg)
	}
	cfg.Telemetry = nil
	return fmt.Sprintf("%s|%t|%#v|%#v|%t", a.Protocol, a.Lossless, cfg, e.Scale, e.Telemetry != nil)
}

// runProtocol is the core runner: it brackets the run with
// RunStarted/RunFinished telemetry, honors ctx cancellation (returning a
// partial run with Canceled set and a nil error), and leaves the event
// buffer attached for the caller to drain via flushRuns — concurrent
// callers drain in harness order to keep the user sink deterministic.
func (e *Env) runProtocol(ctx context.Context, name ProtocolName, lossless bool, cfgMut func(*core.Config)) (*ProtocolRun, error) {
	cfg := e.Cfg
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	proto, err := e.newProtocol(name)
	if err != nil {
		return nil, err
	}
	sum := telemetry.NewSummary()
	sink := telemetry.Sink(sum)
	var buf *telemetry.MemorySink
	if e.Telemetry != nil {
		buf = telemetry.NewMemorySink()
		sink = telemetry.Tee(sum, buf)
	}
	cfg.Telemetry = sink
	src := e.Trace
	if e.chunks != nil {
		// A window's cursor is forward-only, so each run (concurrent harness
		// runs included) windows the shared chunk source for itself; Close
		// drains its prefetches before the source can go away.
		win := trace.NewWindowSource(e.chunks, envWindow)
		defer win.Close()
		src = win
	}
	sink.Emit(telemetry.RunStarted{Protocol: string(name), Lossless: lossless})
	eng, err := core.NewEngine(cfg, src, e.FreshDatasets(), radio.NewModel(lossless), e.Probe)
	if err != nil {
		return nil, fmt.Errorf("experiments: engine for %s: %w", name, err)
	}
	canceled := false
	if err := eng.RunContext(ctx, proto, e.Scale.TrainDuration); err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("experiments: running %s: %w", name, err)
		}
		canceled = true
	}
	sink.Emit(telemetry.RunFinished{
		Protocol: string(name), Time: eng.Now(),
		FinalLoss: eng.LossCurve.Final(), Canceled: canceled,
	})
	run := &ProtocolRun{
		Name: name, Lossless: lossless,
		Curve: eng.LossCurve, Recv: eng.FleetReceiveStats(),
		Comm: sum, Canceled: canceled, events: buf,
	}
	for _, v := range eng.Vehicles {
		run.Fleet = append(run.Fleet, v.Policy)
	}
	return run, nil
}

// flushRuns drains buffered per-run event streams into the Env's user
// sink in the given order. Called after parallel phases so a shared sink
// (JSONL file) sees whole runs in harness order regardless of scheduling.
func (e *Env) flushRuns(runs ...*ProtocolRun) {
	if e.Telemetry == nil {
		return
	}
	for _, r := range runs {
		if r != nil && r.events != nil {
			r.events.Drain(e.Telemetry)
			r.events = nil
		}
	}
}

// EvalFleet computes fleet-averaged driving success rates for every
// condition: EvalFleetSample models spread across the fleet are each run on
// EvalTrials trials and the rates averaged — the per-model average is what
// the paper reports ("driving success rate on average").
func (e *Env) EvalFleet(fleet []*model.Policy) map[eval.Condition]float64 {
	ev := eval.NewEvaluator(e.Suite)
	ev.NormalTraffic = world.SpawnConfig{
		BackgroundCars: e.Scale.BackgroundCars,
		Pedestrians:    e.Scale.Pedestrians,
	}
	sample := e.Scale.EvalFleetSample
	if sample < 1 {
		sample = 1
	}
	if sample > len(fleet) {
		sample = len(fleet)
	}
	// Fan the (condition, fleet-sample) grid out across workers. Each task
	// clones its policy — the same fleet model appears in several tasks, and
	// policies are not concurrency-safe; a clone has identical parameters, so
	// identical predictions. Rates come back in task-index order and are
	// reduced per condition in k order, so the float averages match the
	// serial nested loops bit for bit.
	type task struct {
		cond eval.Condition
		k    int
	}
	tasks := make([]task, 0, len(eval.Conditions)*sample)
	for _, cond := range eval.Conditions {
		for k := 0; k < sample; k++ {
			tasks = append(tasks, task{cond, k})
		}
	}
	rates := parallel.Map(parallel.Resolve(e.Scale.Workers), len(tasks), func(t int) float64 {
		cond, k := tasks[t].cond, tasks[t].k
		idx := k * len(fleet) / sample
		seed := e.Scale.Seed*1_000_003 + uint64(k)*501 + uint64(cond)*77
		return ev.SuccessRate(fleet[idx].Clone(), cond, e.Scale.EvalTrials, seed)
	})
	out := make(map[eval.Condition]float64, len(eval.Conditions))
	for ci, cond := range eval.Conditions {
		var sum float64
		for k := 0; k < sample; k++ {
			sum += rates[ci*sample+k]
		}
		out[cond] = sum / float64(sample)
	}
	return out
}
