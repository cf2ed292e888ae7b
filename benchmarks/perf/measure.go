package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lbchat/internal/experiments"
	"lbchat/internal/metrics"
)

// sizing is everything that differs between the benchmark and the tier-1
// smoke test: the same code runs both, only smaller.
type sizing struct {
	// scale is the recorded world of the three scenario workloads, and
	// scenario its seed: a constant, because at six vehicles chat counts and
	// BEV sparsity differ so much between recorded worlds that a pass's
	// wall-clock moves by ±13 % from one to the next. The workload seed
	// drives everything downstream of the recording.
	scale    experiments.Scale
	scenario uint64
	// paperDur and denseDur are the simulated seconds of the paper-lossy
	// and chat-dense passes, driveTrainDur of drive-eval's training run.
	paperDur, denseDur, driveTrainDur float64
	// evalTrials and evalModels size drive-eval's grid.
	evalTrials, evalModels int
	// fleetN vehicles are ticked fleetTicks times at 0.5 s into the LBTC
	// file fleet-scan reads back for fleetDur simulated seconds.
	fleetN, fleetTicks int
	fleetDur           float64
	// scenarioSetups, driveSetups and fleetSetups are the cold set-ups an
	// untraced run times: more where a set-up is short, fewer where it
	// contains a training run. A traced run times tracedSetups.
	scenarioSetups, driveSetups, fleetSetups, tracedSetups int
	// minPasses is the fewest untraced passes per run, and the number of
	// untraced and of traced passes a traced run alternates.
	minPasses int
	// kernelCalls and kernelBudget end a direct-kernel timing loop at
	// whichever comes first.
	kernelCalls  int
	kernelBudget time.Duration
}

// benchSizing is the root bench_test.go benchScale() — six vehicles, 900
// collect ticks, 9600 trace ticks, 1500 s, 64 probe frames — with every
// pass sized so that three passes and the set-ups of all four workloads fit
// the 37 s a run may take on average (92 runs in 3420 s) while the box runs
// a fifth slower than its best.
func benchSizing() *sizing {
	s := experiments.BenchScale()
	s.Vehicles = 6
	s.CollectTicks = 900
	s.TraceTicks = 9600
	s.TrainDuration = 1500
	s.ProbeFrames = 64
	s.EvalTrials = 8
	s.EvalFleetSample = 2
	s.RoutesPerCondition = 5
	s.Workers = 1
	return &sizing{
		scale: s, scenario: 7,
		paperDur: 1500, denseDur: 500, driveTrainDur: 500,
		evalTrials: 16, evalModels: 2,
		fleetN: 4096, fleetTicks: 1300, fleetDur: 450,
		scenarioSetups: 5, driveSetups: 3, fleetSetups: 10, tracedSetups: 3,
		minPasses:   3,
		kernelCalls: 200, kernelBudget: 500 * time.Millisecond,
	}
}

// tinySizing keeps every code path of benchSizing and finishes in seconds.
// fleetDur still outlasts one 128 s trace chunk plus the window's trailing
// slack, so the window slides.
func tinySizing() *sizing {
	s := experiments.TestScale()
	s.Workers = 1
	return &sizing{
		scale: s, scenario: 1,
		paperDur: 240, denseDur: 240, driveTrainDur: 240,
		evalTrials: 1, evalModels: 1,
		fleetN: 256, fleetTicks: 700, fleetDur: 170,
		scenarioSetups: 1, driveSetups: 1, fleetSetups: 1, tracedSetups: 1,
		minPasses:   1,
		kernelCalls: 2, kernelBudget: 20 * time.Millisecond,
	}
}

// check is one correctness check; each counts as an attempted operation.
type check struct {
	name   string
	ok     bool
	detail string
}

func checkf(name string, ok bool, format string, args ...any) check {
	return check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)}
}

// passOut is what one execution of a workload's measured phase yields.
type passOut struct {
	// start and wall are the measured phase's beginning and wall-clock
	// seconds.
	start time.Time
	wall  float64
	// vsecPerS is simulated seconds per wall second.
	vsecPerS float64
	// exact holds every output that must repeat bit for bit in each pass.
	exact map[string]float64
	// layer holds the pass's per-layer metrics: counts and quality always,
	// timings of calls into the layers when the recorder is on.
	layer  map[string]float64
	checks []check
}

// workload is one named benchmark workload.
type workload interface {
	// setUp builds the workload's inputs from cold, replacing any earlier
	// state, and returns the set-up's own per-layer metrics.
	setUp(rec *recorder) (map[string]float64, error)
	// pass runs the measured phase once from pristine state.
	pass(rec *recorder) (passOut, error)
	// replay repeats the set-up's steps one timed call at a time, so the
	// traced run can say where a set-up's time goes; nil when a set-up has
	// nothing to split that its own spans do not show.
	replay(rec *recorder) (map[string]float64, error)
	// extras makes the traced run's additional measurements — seed check,
	// parallel pass, direct kernel calls — on the state the last pass left.
	extras(rec *recorder) (map[string]float64, []check, error)
	// coldSetups is how many set-ups an untraced run times.
	coldSetups() int
	// rootSpan names the span the ledger takes shares of.
	rootSpan() string
	close()
}

func newWorkload(name string, sz *sizing, o options) (workload, error) {
	switch name {
	case "paper-lossy":
		return &engineWorkload{sz: sz, o: o, dur: sz.paperDur, parallelPass: true}, nil
	case "chat-dense":
		return &engineWorkload{sz: sz, o: o, dur: sz.denseDur, chatCooldown: 10, pairCooldown: 20}, nil
	case "drive-eval":
		return &driveWorkload{sz: sz, o: o}, nil
	case "fleet-scan":
		return &fleetWorkload{sz: sz, o: o}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want paper-lossy, chat-dense, drive-eval or fleet-scan)", name)
}

// outcome is a run's metrics by name plus its checks.
type outcome struct {
	metrics map[string]float64
	checks  []check
	passes  int
}

// result keeps the declared metrics, in the declared units. A per-layer
// metric the workload does not exercise reads 0.
func (o *outcome) result(declared []specMetric) result {
	res := result{Correct: true, Attempted: o.passes + len(o.checks), Metrics: map[string]value{}}
	for _, c := range o.checks {
		if !c.ok {
			res.Failed++
			res.Correct = false
		}
	}
	for _, m := range declared {
		res.Metrics[m.Name] = value{Value: o.metrics[m.Name], Unit: m.Unit}
	}
	return res
}

// phase is one timed stretch of a run.
type phase struct {
	start time.Time
	wall  float64
}

func (p phase) end() time.Time { return p.start.Add(time.Duration(p.wall * float64(time.Second))) }

// adjusted is the phases' wall-clock at the box's fastest: each divided by
// the slowdown the sensor saw during it.
func adjusted(sens *sensor, phases []phase) []float64 {
	out := make([]float64, len(phases))
	for i, p := range phases {
		out[i] = p.wall / sens.slowdown(p.start, p.end())
	}
	return out
}

// apart tells how the medians of two sets of timings compare with a limit,
// in per cent of theirs: the difference (absolute unless signed), whether
// it reaches the limit, and whether it does so beyond what the box's
// wandering speed explains — the sets hold at least three timings each and
// do not overlap at all.
func apart(ours, theirs []float64, limit float64, signed bool) (diff float64, reached, resolved bool) {
	diff = 100 * ratio(median(ours)-median(theirs), median(theirs))
	if !signed {
		diff = math.Abs(diff)
	}
	loO, hiO := minMax(ours)
	loT, hiT := minMax(theirs)
	return diff, diff >= limit, len(ours) >= 3 && len(theirs) >= 3 && (loO > hiT || hiO < loT)
}

// within is the check behind the ledger's two acceptance thresholds. Two
// medians of three differ by more than either limit often enough on a box
// whose speed wanders, so a breach counts only when the sets do not
// overlap, and then only after measure has doubled both sets and they still
// do not; a breach the sets' overlap can explain is reported unresolved.
func within(name string, ours, theirs []float64, limit float64, signed bool) (float64, check) {
	diff, reached, resolved := apart(ours, theirs, limit, signed)
	switch {
	case !reached:
		return diff, checkf(name, true, "%.2f %% < %g %%", diff, limit)
	case resolved:
		return diff, checkf(name, false, "%.2f %% ≥ %g %%, and the two sets of %d and %d timings do not overlap", diff, limit, len(ours), len(theirs))
	}
	return diff, checkf(name, true, "unresolved: %.2f %% ≥ %g %%, but the two sets of %d and %d timings overlap", diff, limit, len(ours), len(theirs))
}

// The ledger's acceptance thresholds, in per cent: a traced pass may cost
// this much more than an untraced one, and the replayed set-up split may
// miss the set-up it splits by this much.
const (
	overheadLimit = 3
	residualLimit = 15
)

// measure runs one workload. Untraced, it times several cold set-ups and
// then repeats the measured phase until the seconds budget is spent, at
// least minPasses times. Traced, it times tracedSetups set-ups, each
// followed by a call-by-call replay, makes minPasses untraced passes, each
// followed by a traced one, and takes the extra per-layer measurements;
// where a threshold looks breached it makes as many pairs again before it
// says so. The heap is collected before every set-up and pass, outside the
// timed region, so each starts from the same GC state and the resident-set
// peak is one phase's, not the garbage of all of them. Every timed phase is
// divided by the slowdown the sensor saw during it.
func measure(w workload, sz *sizing, rec *recorder, o options) (*outcome, error) {
	defer w.close()
	sens := startSensor()
	defer sens.close()
	log := o.log
	out := &outcome{metrics: map[string]float64{}}
	traced := rec.on
	breached := func(ours, theirs []phase, limit float64, signed bool) bool {
		_, reached, resolved := apart(adjusted(sens, ours), adjusted(sens, theirs), limit, signed)
		return reached && resolved
	}

	setups := w.coldSetups()
	if traced {
		setups = sz.tracedSetups
	}
	var setupPhases, builds, replays []phase
	setupLayers := map[string][]float64{}
	keep := func(layer map[string]float64) {
		for k, v := range layer {
			setupLayers[k] = append(setupLayers[k], v)
		}
	}
	for i := 0; i < setups || (i < 2*setups && breached(replays, builds, residualLimit, false)); i++ {
		runtime.GC()
		id := rec.begin("setup")
		start := time.Now()
		layer, err := w.setUp(rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupPhases = append(setupPhases, phase{start, time.Since(start).Seconds()})
		rec.end(id)
		keep(layer)
		if !traced {
			continue
		}
		runtime.GC()
		start = time.Now()
		split, err := w.replay(rec)
		if err != nil {
			return nil, fmt.Errorf("set-up replay: %w", err)
		}
		if split != nil {
			// Set-up begins with the BuildEnv call the replay splits.
			builds = append(builds, phase{setupPhases[i].start, layer["setup.buildenv_s"]})
			replays = append(replays, phase{start, time.Since(start).Seconds()})
			keep(split)
		}
	}
	for k, xs := range setupLayers {
		out.metrics[k] = median(xs)
	}

	// The untraced passes never see the recorder.
	off := newRecorder(false, "")
	var passes, tracedPasses []passOut
	var walls, tracedWalls []phase
	spent := 0.0
	for {
		runtime.GC()
		p, err := w.pass(off)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", len(passes)+1, err)
		}
		passes, walls = append(passes, p), append(walls, phase{p.start, p.wall})
		spent += p.wall
		if traced {
			runtime.GC()
			p, err := w.pass(rec)
			if err != nil {
				return nil, fmt.Errorf("traced pass %d: %w", len(tracedPasses)+1, err)
			}
			tracedPasses, tracedWalls = append(tracedPasses, p), append(tracedWalls, phase{p.start, p.wall})
		}
		n := len(passes)
		if n < sz.minPasses {
			continue
		}
		// Untraced, another pass starts only while at least half of it fits
		// the budget.
		if !traced && spent+spent/float64(n)/2 > o.seconds {
			break
		}
		if traced && !(n < 2*sz.minPasses && breached(tracedWalls, walls, overheadLimit, true)) {
			break
		}
	}
	// Counts and quality come with every pass; a traced one adds timings.
	last := passes[len(passes)-1]
	if traced {
		last = tracedPasses[len(tracedPasses)-1]
	}
	merge(out.metrics, last.layer)

	// Every phase is over: the sensor has seen the box at its fastest.
	setupAdj, wallsAdj := adjusted(sens, setupPhases), adjusted(sens, walls)
	var setupRaw, wallsRaw, rates, slow []float64
	for _, p := range setupPhases {
		setupRaw = append(setupRaw, p.wall)
	}
	for i, p := range passes {
		f := p.wall / wallsAdj[i]
		wallsRaw, rates, slow = append(wallsRaw, p.wall), append(rates, p.vsecPerS*f), append(slow, f)
	}
	out.metrics["setup_s"] = median(setupAdj)
	out.metrics["setup_wall_s"] = median(setupRaw)
	out.metrics["vsec_per_s"] = median(rates)
	out.metrics["run_wall_s"] = median(wallsRaw)
	out.metrics["box.slowdown_x"] = median(slow)
	fmt.Fprintf(log, "set-up wall: n=%d %s\n   adjusted:     %s\n", len(setupRaw), summarize(setupRaw), summarize(setupAdj))
	fmt.Fprintf(log, "pass wall:   n=%d %s\n   adjusted:     %s\n   slowdown:     %.3f\n", len(wallsRaw), summarize(wallsRaw), summarize(wallsAdj), slow)

	if traced {
		overhead, c := within("trace-overhead", adjusted(sens, tracedWalls), wallsAdj, overheadLimit, true)
		out.metrics["trace.overhead_pct"] = overhead
		out.checks = append(out.checks, c)
		if len(replays) > 0 {
			residual, c := within("setup-split-adds-up", adjusted(sens, replays), adjusted(sens, builds), residualLimit, false)
			out.metrics["setup.split_residual_pct"] = residual
			out.checks = append(out.checks, c)
		}
		extra, checks, err := w.extras(rec)
		if err != nil {
			return nil, fmt.Errorf("traced extras: %w", err)
		}
		merge(out.metrics, extra)
		out.checks = append(out.checks, checks...)
		// model.train is the engine's own train.wall_ns histogram: time
		// inside core.run's self time, not a span of the harness.
		var trainRow []ledgerRow
		var trainS, steps float64
		for _, p := range tracedPasses {
			trainS, steps = trainS+p.layer["model.train_s"], steps+p.layer["model.train_steps"]
		}
		if trainS > 0 {
			trainRow = []ledgerRow{{name: "(model.train)", calls: int(steps), total: trainS, self: trainS}}
		}
		fmt.Fprintf(log, "ledger, measured phase, %d traced passes:\n", len(tracedPasses))
		rec.printLedger(log, w.rootSpan(), trainRow)
		fmt.Fprintln(log, "ledger, set-up, and BuildEnv replayed call by call:")
		rec.printLedger(log, "setup", nil)
		rec.printLedger(log, "setup.replay", nil)
	}

	passes = append(passes, tracedPasses...)
	out.passes = len(passes)
	for _, p := range passes {
		out.checks = append(out.checks, p.checks...)
	}
	out.checks = append(out.checks, identical(passes))
	out.metrics["peak_rss_mb"] = peakRSSMB()
	return out, nil
}

// identical checks that every pass produced exactly the first pass's
// outputs: the program is deterministic, so a pass that differs is wrong.
func identical(passes []passOut) check {
	first := passes[0].exact
	keys := metrics.SortedKeys(first)
	for i, p := range passes[1:] {
		for _, k := range keys {
			if p.exact[k] != first[k] {
				return checkf("passes-identical", false, "pass %d %s = %v, pass 1 = %v", i+2, k, p.exact[k], first[k])
			}
		}
	}
	return checkf("passes-identical", true, "%d passes, %d outputs each", len(passes), len(first))
}

func merge(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] = v
	}
}

// summarize prints median, quartiles and extremes. No tail percentile:
// there are fewer than ten passes.
func summarize(xs []float64) string {
	q1, q3 := quartiles(xs)
	lo, hi := minMax(xs)
	return fmt.Sprintf("median=%.4fs q1=%.4fs q3=%.4fs min=%.4fs max=%.4fs", median(xs), q1, q3, lo, hi)
}

// finite reports whether every value is a finite number.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// peakRSSMB reads the process's resident-set high-water mark. Each
// workload runs in its own process, so this is the workload's own peak.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
