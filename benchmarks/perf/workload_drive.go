package main

import (
	"fmt"
	"time"

	"lbchat/internal/bev"
	"lbchat/internal/core"
	"lbchat/internal/dataset"
	"lbchat/internal/eval"
	"lbchat/internal/experiments"
	"lbchat/internal/model"
	"lbchat/internal/radio"
	"lbchat/internal/simrand"
	"lbchat/internal/telemetry"
	"lbchat/internal/world"
)

// driveWorkload is the closed-loop driving evaluation behind Tables II–VII:
// a fleet trained once in set-up drives experiments.Env.EvalFleet's grid of
// five traffic conditions × evalModels fleet models. It uses the same
// model and tensor layers as training, but batch-1 and forward-only, beside
// a loop that world.Step and the BEV rasteriser dominate.
type driveWorkload struct {
	sz *sizing
	o  options

	env   *experiments.Env
	fleet []*model.Policy
	// trainStart, trainFirst and trainFinal are the set-up training run's
	// probe loss at t=0, at the first record interval and at the end.
	trainStart, trainFirst, trainFinal float64
}

func (w *driveWorkload) coldSetups() int  { return w.sz.driveSetups }
func (w *driveWorkload) rootSpan() string { return "eval.run" }

func (w *driveWorkload) close() {
	if w.env != nil {
		w.env.Close()
		w.env = nil
	}
}

// train runs lossless LbChat over the scenario at the given seed for dur
// simulated seconds.
func (w *driveWorkload) train(seed uint64, dur float64) (*core.Engine, error) {
	cfg := w.env.Cfg
	cfg.Seed = seed
	cfg.Workers = 1
	cfg.Telemetry = telemetry.NewSummary()
	eng, err := core.NewEngine(cfg, w.env.Trace, w.env.FreshDatasets(), radio.NewModel(true), w.env.Probe)
	if err != nil {
		return nil, err
	}
	return eng, eng.Run(core.NewLbChat(), dur)
}

func (w *driveWorkload) setUp(rec *recorder) (map[string]float64, error) {
	w.close()
	env, layer, err := buildScenario(w.sz)
	if err != nil {
		return nil, err
	}
	w.env = env
	var eng *core.Engine
	layer["setup.train_fleet_s"] = rec.timed("setup.train_fleet", func() {
		eng, err = w.train(w.o.seed, w.sz.driveTrainDur)
	})
	if err != nil {
		return nil, err
	}
	w.fleet = w.fleet[:0]
	for _, v := range eng.Vehicles {
		w.fleet = append(w.fleet, v.Policy)
	}
	pts := eng.LossCurve.Points
	w.trainStart, w.trainFirst, w.trainFinal = pts[0].Value, pts[1].Value, eng.LossCurve.Final()
	return layer, nil
}

// timedDriver counts — and, traced, times — the policy's Predict calls
// from the evaluator's side of the eval.Driver interface.
type timedDriver struct {
	policy *model.Policy
	timed  bool
	calls  int
	spent  time.Duration
}

func (d *timedDriver) Predict(bevT []uint8, speed, navDist, redDist float64, cmd dataset.Command) []float64 {
	d.calls++
	if !d.timed {
		return d.policy.Predict(bevT, speed, navDist, redDist, cmd)
	}
	start := time.Now()
	out := d.policy.Predict(bevT, speed, navDist, redDist, cmd)
	d.spent += time.Since(start)
	return out
}

func (w *driveWorkload) pass(rec *recorder) (passOut, error) {
	ev := eval.NewEvaluator(w.env.Suite)
	ev.NormalTraffic = world.SpawnConfig{BackgroundCars: w.sz.scale.BackgroundCars, Pedestrians: w.sz.scale.Pedestrians}
	models := w.sz.evalModels
	if models > len(w.fleet) {
		models = len(w.fleet)
	}

	out := passOut{exact: map[string]float64{}, layer: map[string]float64{}}
	var calls int
	var predict time.Duration
	var rateSum, stepCost float64
	id := rec.begin("eval.run")
	start := time.Now()
	for _, cond := range eval.Conditions {
		var condRate float64
		for k := 0; k < models; k++ {
			// Env.EvalFleet's model pick and seed formula, at the workload seed.
			drv := &timedDriver{policy: w.fleet[k*len(w.fleet)/models].Clone(), timed: rec.on}
			seed := w.o.seed*1_000_003 + uint64(k)*501 + uint64(cond)*77
			cell := rec.begin("eval.success_rate")
			cellStart := time.Now()
			rate := ev.SuccessRate(drv, cond, w.sz.evalTrials, seed)
			cellWall := time.Since(cellStart).Seconds()
			rec.end(cell)
			condRate += rate / float64(models)
			calls += drv.calls
			predict += drv.spent
			stepCost += cellWall / float64(drv.calls)
			if rec.on {
				fmt.Fprintf(w.o.log, "  %-12v model %d: %6d steps %7.3f s %7.0f steps/s success %5.1f%%\n",
					cond, k, drv.calls, cellWall, float64(drv.calls)/cellWall, rate)
			}
		}
		out.exact["success_rate."+cond.String()] = condRate
		rateSum += condRate
		out.checks = append(out.checks, checkf("success-rate-in-range", condRate >= 0 && condRate <= 100, "%v: %v", cond, condRate))
	}
	out.start, out.wall = start, time.Since(start).Seconds()
	rec.end(id)

	cells := float64(len(eval.Conditions) * models)
	trials := cells * float64(w.sz.evalTrials)
	// Simulated driving seconds per wall second at the mean cost of a
	// control step over the grid's cells: a behaviour change that lengthens
	// rollouts in one traffic condition then shifts no weight between cheap
	// and costly conditions.
	out.vsecPerS = ev.DT / (stepCost / cells)
	out.exact["eval.predict_calls"] = float64(calls)
	out.exact["final_probe_loss"] = w.trainFinal
	out.layer["eval.run_s"] = out.wall
	out.layer["eval.predict_calls"] = float64(calls)
	out.layer["eval.trials"] = trials
	out.layer["eval.trial_ms"] = out.wall * 1e3 / trials
	out.layer["control_steps_per_s"] = float64(calls) / out.wall
	out.layer["success_rate_mean"] = rateSum / float64(len(eval.Conditions))
	out.layer["final_probe_loss"] = w.trainFinal
	if rec.on {
		out.layer["eval.predict_s"] = predict.Seconds()
		out.layer["eval.world_bev_s"] = out.wall - predict.Seconds()
	}
	out.checks = append(out.checks,
		checkf("drove", calls > 0, "Predict calls %d", calls),
		checkf("fleet-trained", finite(w.trainStart, w.trainFinal) && w.trainFinal < w.trainStart,
			"set-up training: t=0 loss %v, final loss %v", w.trainStart, w.trainFinal),
	)
	return out, nil
}

func (w *driveWorkload) replay(rec *recorder) (map[string]float64, error) {
	return replayBuildEnv(rec, w.sz)
}

func (w *driveWorkload) extras(rec *recorder) (map[string]float64, []check, error) {
	layer := map[string]float64{}

	// Seed wiring: one record interval of training at seed+1.
	interval := w.env.Cfg.RecordInterval
	other, err := w.train(w.o.seed+1, interval)
	if err != nil {
		return nil, nil, err
	}
	otherFirst := other.LossCurve.Points[1].Value
	checks := []check{checkf("seed-wired", otherFirst != w.trainFirst,
		"probe loss at t=%gs is %v at seed %d and at seed %d", interval, w.trainFirst, w.o.seed, w.o.seed+1)}

	if err := driveKernels(newKernelTimer(rec, w.sz, layer), w); err != nil {
		return nil, nil, fmt.Errorf("drive kernels: %w", err)
	}
	return layer, checks, nil
}

// driveKernels times the calls the driving loop and data collection spend
// their time in, on a world at the paper's traffic population.
func driveKernels(k *kernelTimer, w *driveWorkload) error {
	scale := w.sz.scale
	wld, err := world.New(w.env.Map, world.SpawnConfig{
		Experts: scale.Vehicles, BackgroundCars: 50, Pedestrians: 250,
	}, simrand.New(w.o.seed).Derive("kernel-world"))
	if err != nil {
		return err
	}
	ras := bev.NewRasterizer(bev.DefaultConfig(), w.env.Map)
	numWaypoints := w.env.Cfg.Model.NumWaypoints
	ego := wld.Experts[0]
	k.us("world.step_us", func() { wld.Step(0.5) })
	cfg := ras.Config()
	var bevT []uint8
	k.us("bev.rasterize_us", func() {
		frame := ego.Frame()
		bevT = ras.Rasterize(frame,
			wld.VehiclePositionsNearSeenBy(frame.Origin, cfg.VehicleCullRadius(), ego.ID, nil),
			wld.PedestrianPositionsNear(frame.Origin, cfg.PedestrianCullRadius()))
	})
	k.us("world.collect_frame_us", func() { world.CollectFrame(wld, ego, ras, numWaypoints) })
	policy := w.fleet[0].Clone()
	k.us("model.predict_us", func() { policy.Predict(bevT, 0.5, 1, 1, dataset.CmdFollow) })
	return nil
}
