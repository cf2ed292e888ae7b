package main

import (
	"time"

	"lbchat/internal/bev"
	"lbchat/internal/core"
	"lbchat/internal/eval"
	"lbchat/internal/experiments"
	"lbchat/internal/radio"
	"lbchat/internal/simrand"
	"lbchat/internal/telemetry"
	"lbchat/internal/tensor"
	"lbchat/internal/trace"
	"lbchat/internal/world"
)

// engineWorkload is an LbChat co-simulation over the recorded scenario
// under wireless loss: paper-lossy at the paper's chat cadence (training
// dominates), chat-dense with the cooldowns cut so the radios are never
// idle (the chat path dominates).
type engineWorkload struct {
	sz *sizing
	o  options
	// dur is the simulated seconds of one pass.
	dur float64
	// chatCooldown and pairCooldown override the engine defaults when
	// positive.
	chatCooldown, pairCooldown float64
	// parallelPass adds one pass at Workers=0 to the traced run.
	parallelPass bool

	env *experiments.Env
	// eng is the last pass's engine — the state the direct kernel calls
	// run on — and lastWall that pass's wall-clock.
	eng      *core.Engine
	lastWall float64
}

func (w *engineWorkload) coldSetups() int  { return w.sz.scenarioSetups }
func (w *engineWorkload) rootSpan() string { return "core.run" }

func (w *engineWorkload) close() {
	if w.env != nil {
		w.env.Close()
		w.env = nil
	}
}

// buildScenario is the set-up the three scenario workloads share: the
// recorded world at the sizing's scenario seed. It returns BuildEnv's
// wall-clock under the name the set-up split is compared against.
func buildScenario(sz *sizing) (*experiments.Env, map[string]float64, error) {
	scale := sz.scale
	scale.Seed = sz.scenario
	start := time.Now()
	env, err := experiments.BuildEnv(scale)
	return env, map[string]float64{"setup.buildenv_s": time.Since(start).Seconds()}, err
}

func (w *engineWorkload) setUp(*recorder) (map[string]float64, error) {
	w.close()
	env, layer, err := buildScenario(w.sz)
	if err != nil {
		return nil, err
	}
	w.env = env
	return layer, nil
}

// config is the scenario's engine config at the workload seed, with a
// fresh summary sink attached — as experiments.RunProtocol always does.
func (w *engineWorkload) config(seed uint64, workers int) (core.Config, *telemetry.Summary) {
	cfg := w.env.Cfg
	cfg.Seed = seed
	cfg.Workers = workers
	if w.chatCooldown > 0 {
		cfg.ChatCooldown = w.chatCooldown
	}
	if w.pairCooldown > 0 {
		cfg.PairCooldown = w.pairCooldown
	}
	sum := telemetry.NewSummary()
	cfg.Telemetry = sum
	return cfg, sum
}

func (w *engineWorkload) pass(rec *recorder) (passOut, error) {
	cfg, sum := w.config(w.o.seed, 1)
	eng, err := core.NewEngine(cfg, w.env.Trace, w.env.FreshDatasets(), radio.NewModel(false), w.env.Probe)
	if err != nil {
		return passOut{}, err
	}
	out, err := runEngine(rec, eng, sum, core.NewLbChat(), w.dur)
	if err != nil {
		return passOut{}, err
	}
	w.eng, w.lastWall = eng, out.wall

	curve := eng.LossCurve
	recv := eng.FleetReceiveStats()
	// No model transfer attempted (tiny smoke runs) reads as rate 0, not NaN.
	final, rate := curve.Final(), ratio(float64(recv.Successes), float64(recv.Attempts))
	out.exact["final_probe_loss"] = final
	out.exact["model_recv_rate"] = rate
	out.exact["loss_points"] = float64(len(curve.Points))
	out.layer["final_probe_loss"] = final
	out.layer["model_recv_rate"] = rate
	out.layer["chats_per_s"] = ratio(out.layer["chat.initiated"], out.wall)

	start := curve.Points[0].Value
	out.checks = append(out.checks,
		checkf("loss-finite", finite(start, final), "t=0 loss %v, final loss %v", start, final),
		checkf("loss-improved", final < start, "final loss %v, t=0 loss %v", final, start),
		checkf("recv-rate-in-range", rate >= 0 && rate <= 1, "model_recv_rate %v", rate),
		checkf("trained", out.layer["model.train_steps"] > 0, "train.steps %v", out.layer["model.train_steps"]),
		checkf("chatted", out.layer["chat.initiated"] > 0, "chat.initiated %v", out.layer["chat.initiated"]),
	)
	return out, nil
}

// runEngine times Engine.Run and reads the pass's per-layer numbers off
// the summary registry. With the recorder on, the protocol is wrapped so
// every OnTick call is timed from outside.
func runEngine(rec *recorder, eng *core.Engine, sum *telemetry.Summary, proto core.Protocol, dur float64) (passOut, error) {
	var ticks *tickTimer
	if rec.on {
		ticks = &tickTimer{inner: proto, rec: rec, reg: sum.Reg}
		proto = ticks
	}
	id := rec.begin("core.run")
	start := time.Now()
	err := eng.Run(proto, dur)
	wall := time.Since(start).Seconds()
	rec.end(id)
	if err != nil {
		return passOut{}, err
	}

	reg := sum.Reg
	out := passOut{start: start, wall: wall, vsecPerS: dur / wall, exact: map[string]float64{}, layer: map[string]float64{}}
	// Counters the seed determines: reported per layer, and required to
	// repeat exactly in every pass.
	for _, name := range []string{
		telemetry.MChatInitiated, telemetry.MChatCompleted, telemetry.MChatAborted,
		telemetry.MTransModel, telemetry.MBytesModelGot, telemetry.MBytesCoresetGot,
		telemetry.MAggregations, telemetry.MCoresetRebuilds, telemetry.MCoresetLeavesRebuilt,
		telemetry.MCoresetLeavesCached, telemetry.MCoresetAbsorbFrames, telemetry.MContactsOpened,
		telemetry.MSchedDueDequeued, telemetry.MSchedBucketsTouched,
		telemetry.MTraceLoads, telemetry.MTraceEvicts,
	} {
		out.layer[name] = float64(reg.Counter(name))
		out.exact[name] = out.layer[name]
	}
	for _, name := range []string{telemetry.MTransModelOK, telemetry.MTransCoreset, telemetry.MTrainSteps} {
		out.exact[name] = float64(reg.Counter(name))
	}
	if h := reg.Hist(telemetry.MContactDuration); h != nil {
		out.exact["contact.closed"] = float64(h.N)
	}
	// The window's readahead depth adapts to wall-clock: reported, not exact.
	for _, name := range []string{telemetry.MTracePrefetches, telemetry.MTraceFetchWaitNs} {
		out.layer[name] = float64(reg.Counter(name))
	}
	out.layer["chat.completed_ratio"] = ratio(out.layer[telemetry.MChatCompleted], out.layer[telemetry.MChatInitiated])
	out.layer["transfer.model.ok_ratio"] = ratio(out.exact[telemetry.MTransModelOK], out.layer[telemetry.MTransModel])
	leaves := out.layer[telemetry.MCoresetLeavesRebuilt] + out.layer[telemetry.MCoresetLeavesCached]
	out.layer["coreset.leaf_cache_ratio"] = ratio(out.layer[telemetry.MCoresetLeavesCached], leaves)

	// Local training is timed by the engine itself, per vehicle step, into
	// the summary's wall-clock side channel.
	var trainS float64
	if h := reg.Hist(telemetry.MTrainWallNs); h != nil {
		trainS = h.Sum / 1e9
	}
	steps := out.exact[telemetry.MTrainSteps]
	out.layer["core.run_s"] = wall
	out.layer["model.train_s"] = trainS
	out.layer["model.train_share"] = trainS / wall
	out.layer["model.train_steps"] = steps
	out.layer["model.train_step_in_run_us"] = ratio(trainS*1e6, steps)
	if ticks != nil {
		ontick := ticks.total.Seconds()
		out.layer["core.ontick_s"] = ontick
		out.layer["core.ontick_share"] = ontick / wall
		out.layer["core.chat_ms"] = ratio(ontick*1e3, out.layer[telemetry.MChatInitiated])
		out.layer["core.tick_other_s"] = wall - ontick - trainS
		out.layer["core.tick_other_share"] = (wall - ontick - trainS) / wall
		out.layer["core.tick_ms_p50"] = percentile(ticks.intervals, 0.50)
		out.layer["core.tick_ms_p99"] = percentile(ticks.intervals, 0.99)
		out.layer["core.chat_tick_ms_p99"] = percentile(ticks.chatTicks, 0.99)
		out.checks = append(out.checks, checkf("layers-within-run", ontick+trainS <= wall,
			"core.ontick_s %.4f + model.train_s %.4f > core.run_s %.4f", ontick, trainS, wall))
	}
	return out, nil
}

// tickTimer wraps a protocol so the harness can time every OnTick call —
// and the interval between successive calls, which is one whole engine
// tick — without a timer inside the engine.
type tickTimer struct {
	inner core.Protocol
	rec   *recorder
	reg   *telemetry.Registry

	last      time.Time
	total     time.Duration
	intervals []float64 // ms between successive OnTick entries
	chatTicks []float64 // ms of the OnTick calls that started a chat
}

func (t *tickTimer) Name() string               { return t.inner.Name() }
func (t *tickTimer) Setup(e *core.Engine) error { return t.inner.Setup(e) }

func (t *tickTimer) OnTick(e *core.Engine, now float64) {
	start := time.Now()
	if !t.last.IsZero() {
		t.intervals = append(t.intervals, start.Sub(t.last).Seconds()*1e3)
	}
	t.last = start
	chats := t.reg.Counter(telemetry.MChatInitiated)
	id := t.rec.begin("core.ontick")
	t.inner.OnTick(e, now)
	t.rec.end(id)
	d := time.Since(start)
	t.total += d
	if t.reg.Counter(telemetry.MChatInitiated) > chats {
		t.chatTicks = append(t.chatTicks, d.Seconds()*1e3)
	}
}

func (w *engineWorkload) replay(rec *recorder) (map[string]float64, error) {
	return replayBuildEnv(rec, w.sz)
}

func (w *engineWorkload) extras(rec *recorder) (map[string]float64, []check, error) {
	layer := map[string]float64{}
	checks := []check{seedWired(w)}
	if w.parallelPass {
		serial := w.eng.LossCurve.Final()
		wall, final, err := w.autoWorkersPass()
		if err != nil {
			return nil, nil, err
		}
		layer["parallel.run_wall_auto_s"] = wall
		layer["parallel.speedup_x"] = w.lastWall / wall
		checks = append(checks, checkf("workers-bit-identical", final == serial, "Workers=0 final loss %v, Workers=1 %v", final, serial))
	}
	engineKernels(newKernelTimer(rec, w.sz, layer), w.eng)
	return layer, checks, nil
}

// autoWorkersPass repeats the pass at Workers=0 — one worker per CPU in
// the engine and in the tensor kernels. Informational: on a shared
// two-core box the speed-up says more about the neighbours than the code.
func (w *engineWorkload) autoWorkersPass() (wall, final float64, err error) {
	tensor.SetWorkers(0)
	defer tensor.SetWorkers(1)
	cfg, _ := w.config(w.o.seed, 0)
	eng, err := core.NewEngine(cfg, w.env.Trace, w.env.FreshDatasets(), radio.NewModel(false), w.env.Probe)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := eng.Run(core.NewLbChat(), w.dur); err != nil {
		return 0, 0, err
	}
	return time.Since(start).Seconds(), eng.LossCurve.Final(), nil
}

// seedWired checks that the workload seed reaches the program: one record
// interval at seed+1 must leave a different probe loss than the pass did at
// the same simulated time.
func seedWired(w *engineWorkload) check {
	cfg, _ := w.config(w.o.seed+1, 1)
	eng, err := core.NewEngine(cfg, w.env.Trace, w.env.FreshDatasets(), radio.NewModel(false), w.env.Probe)
	if err != nil {
		return checkf("seed-wired", false, "engine at seed+1: %v", err)
	}
	if err := eng.Run(core.NewLbChat(), cfg.RecordInterval); err != nil {
		return checkf("seed-wired", false, "run at seed+1: %v", err)
	}
	other, mine := eng.LossCurve.Points[1].Value, w.eng.LossCurve.Points[1].Value
	return checkf("seed-wired", other != mine, "probe loss at t=%gs is %v at seed %d and at seed %d", cfg.RecordInterval, mine, w.o.seed, w.o.seed+1)
}

// replayBuildEnv repeats experiments.BuildEnv's sequence call by call,
// timing each layer's public constructor. The split is only worth reading
// if it adds up to the thing it splits, so the run compares the whole
// replay with the BuildEnv call of the set-up before it.
func replayBuildEnv(rec *recorder, sz *sizing) (map[string]float64, error) {
	scale, scenario := sz.scale, sz.scenario
	numWaypoints := core.DefaultConfig().Model.NumWaypoints
	layer := map[string]float64{}
	var (
		m   *world.Map
		wld *world.World
		err error
	)
	id := rec.begin("setup.replay")
	defer rec.end(id)
	layer["setup.world_newmap_s"] = rec.timed("setup.world_newmap", func() {
		m, err = world.NewMap(world.DefaultConfig())
	})
	if err != nil {
		return nil, err
	}
	layer["setup.world_spawn_s"] = rec.timed("setup.world_spawn", func() {
		wld, err = world.New(m, world.SpawnConfig{
			Experts: scale.Vehicles, BackgroundCars: scale.BackgroundCars, Pedestrians: scale.Pedestrians,
		}, simrand.New(scenario).Derive("collect-world"))
	})
	if err != nil {
		return nil, err
	}
	layer["setup.world_collect_s"] = rec.timed("setup.world_collect", func() {
		world.CollectDataset(wld, bev.NewRasterizer(bev.DefaultConfig(), m), numWaypoints, scale.CollectTicks, 0.5)
	})
	layer["setup.trace_record_s"] = rec.timed("setup.trace_record", func() {
		trace.Record(wld, scale.TraceTicks, 0.5)
	})
	layer["setup.eval_probeset_s"] = rec.timed("setup.eval_probeset", func() {
		_, err = eval.ProbeSet(m, bev.DefaultConfig(), numWaypoints, scale.ProbeFrames, scenario+1000)
	})
	if err != nil {
		return nil, err
	}
	layer["setup.eval_buildsuite_s"] = rec.timed("setup.eval_buildsuite", func() {
		_, err = eval.BuildSuite(m, eval.SuiteConfig{RoutesPerCondition: scale.RoutesPerCondition, Seed: scenario + 2000})
	})
	if err != nil {
		return nil, err
	}
	return layer, nil
}
