package main

import (
	"math"
	"time"

	"lbchat/internal/compress"
	"lbchat/internal/core"
	"lbchat/internal/dataset"
	"lbchat/internal/geom"
	"lbchat/internal/nn"
	"lbchat/internal/optimize"
	"lbchat/internal/sched"
	"lbchat/internal/shard"
	"lbchat/internal/simrand"
	"lbchat/internal/spatial"
	"lbchat/internal/tensor"
	"lbchat/internal/trace"
)

// kernelTimer times direct calls into one layer's public functions, on
// state a traced pass left behind, and files the median under the metric's
// name. A loop ends at kernelCalls calls or kernelBudget, whichever comes
// first.
type kernelTimer struct {
	rec   *recorder
	sz    *sizing
	layer map[string]float64
}

func newKernelTimer(rec *recorder, sz *sizing, layer map[string]float64) *kernelTimer {
	return &kernelTimer{rec: rec, sz: sz, layer: layer}
}

// samples calls fn repeatedly and returns each call's seconds.
func (k *kernelTimer) samples(name string, fn func()) []float64 {
	id := k.rec.begin("kernel." + name)
	defer k.rec.end(id)
	var out []float64
	loopStart := time.Now()
	for len(out) < k.sz.kernelCalls && (len(out) < 2 || time.Since(loopStart) < k.sz.kernelBudget) {
		start := time.Now()
		fn()
		out = append(out, time.Since(start).Seconds())
	}
	return out
}

// us files the median microseconds of one call to fn.
func (k *kernelTimer) us(name string, fn func()) {
	k.layer[name] = median(k.samples(name, fn)) * 1e6
}

// nsBatch files the median nanoseconds per operation of fn, which performs
// ops operations per call — for operations too short to time one by one.
func (k *kernelTimer) nsBatch(name string, ops int, fn func()) {
	k.layer[name] = median(k.samples(name, fn)) * 1e9 / float64(ops)
}

// engineKernels times the layers a co-simulation pass spends its time in,
// on the trained fleet, datasets and coresets the traced pass left.
func engineKernels(k *kernelTimer, eng *core.Engine) {
	v := eng.Vehicles[0]
	rng := simrand.New(eng.Cfg.Seed).Derive("perf-kernels")
	policy := v.Policy.Clone()
	items := v.Data.Items()
	take := func(n int) []dataset.Weighted {
		if n > len(items) {
			n = len(items)
		}
		return items[:n]
	}

	// model: one optimizer step, the two loss evaluations the chat path and
	// the coreset layering make, and batch-1 inference.
	batch := v.Data.SampleBatch(eng.Cfg.BatchSize, rng)
	k.us("model.train_step_us", func() { policy.TrainStep(batch) })
	evalItems := take(eng.Cfg.EvalSubset)
	k.us("model.loss_us", func() { policy.Loss(evalItems) })
	layering := take(eng.Cfg.LayeringSample)
	k.us("model.per_sample_losses_us", func() { policy.PerSampleLosses(layering) })
	one := items[0].Sample
	k.us("model.predict_us", func() { policy.Predict(one.BEV, one.Speed, one.NavDist, one.RedDist, one.Command) })

	// tensor: the first dense layer's three products at the training
	// shapes, on a real input batch (the kernels skip zero inputs, and BEV
	// rasters are mostly zero).
	mc := eng.Cfg.Model
	in, hidden, rows := mc.InputSize(), mc.Hidden, len(batch)
	x := tensor.New(rows, in)
	for i, it := range batch {
		row := x.Data()[i*in : (i+1)*in]
		for j, b := range it.Sample.BEV {
			row[j] = float64(b)
		}
		row[in-3], row[in-2], row[in-1] = it.Sample.Speed, it.Sample.NavDist, it.Sample.RedDist
	}
	weights := tensor.New(in, hidden)
	grad := tensor.New(rows, hidden)
	for _, t := range []*tensor.Dense{weights, grad} {
		for i := range t.Data() {
			t.Data()[i] = rng.Normal(0, 0.1)
		}
	}
	out, dW, dX := tensor.New(rows, hidden), tensor.New(in, hidden), tensor.New(rows, in)
	k.us("tensor.matmul_us", func() { tensor.MatMulInto(out, x, weights) })
	k.us("tensor.matmul_transa_us", func() { tensor.MatMulTransAInto(dW, x, grad) })
	k.us("tensor.matmul_transb_us", func() { tensor.MatMulTransBInto(dX, grad, weights) })
	flops := 2 * float64(rows*in*hidden)
	k.layer["tensor.matmul_gflops"] = ratio(flops/1e3, k.layer["tensor.matmul_transb_us"])

	adam := nn.NewAdam(mc.LR)
	k.us("nn.adam_step_us", func() { adam.Step(policy.Params()) })

	// compress: top-k at the three sub-unit ψ samples fitPhi draws, and the
	// engine's delta compression around it.
	flat := v.Policy.Flat()
	for _, s := range []struct {
		name string
		psi  float64
	}{{"compress.topk_us.psi005", 0.05}, {"compress.topk_us.psi020", 0.20}, {"compress.topk_us.psi050", 0.50}} {
		keep := compress.KForPsi(len(flat), s.psi)
		k.us(s.name, func() { compress.TopK(flat, keep) })
	}
	k.us("core.compress_delta_us", func() { eng.CompressDelta(flat, 0.2) })
	k.us("core.compress_reconstruct_us", func() { eng.CompressReconstruct(flat, 0.2) })

	// optimize: the φ fit and the Eq. (7) grid search, on a problem
	// recorded from this vehicle the way LbChat.fitPhi builds one.
	scratch := v.Policy.Clone()
	var psis, losses []float64
	for _, psi := range eng.Cfg.PsiSamples {
		loss := v.Policy.Loss(evalItems)
		if psi < 1 {
			if err := scratch.SetFlat(eng.CompressReconstruct(flat, psi)); err != nil {
				continue
			}
			loss = scratch.Loss(evalItems)
		}
		psis, losses = append(psis, psi), append(losses, loss)
	}
	k.us("optimize.fitphi_us", func() { _, _ = optimize.FitPhi(psis, losses) })
	if curve, err := optimize.FitPhi(psis, losses); err == nil {
		problem := optimize.Problem{
			PhiSelf: curve, PhiPeer: curve,
			LossSelfOnPeer: losses[len(losses)-1] * 1.5, LossPeerOnSelf: losses[len(losses)-1] * 1.5,
			ModelBytes: eng.ModelWireBytes(), MinBandwidthBps: v.Bandwidth,
			TimeBudget: eng.Cfg.TimeBudget, ContactTime: eng.Cfg.ContactHorizon, LambdaC: eng.Cfg.LambdaC,
		}
		k.us("optimize.solve_us", func() { optimize.Solve(problem) })
	}

	// core: the coreset path. Cold drops the vehicle's coreset and tree so
	// EnsureCoreset builds from nothing; warm absorbs a peer coreset, ages
	// the vehicle's own past its refresh interval, and refreshes only the
	// leaves the absorb dirtied.
	peer, err := eng.EnsureCoreset(eng.Vehicles[1])
	if err == nil {
		k.us("core.ensure_coreset_cold_us", func() {
			v.Core, v.Tree = nil, nil
			_, _ = eng.EnsureCoreset(v)
		})
		var absorb, warm []float64
		k.samples("core.ensure_coreset_warm", func() {
			start := time.Now()
			_ = eng.AbsorbCoreset(v, peer)
			absorb = append(absorb, time.Since(start).Seconds())
			v.CoreBuiltAt = math.Inf(-1)
			start = time.Now()
			_, _ = eng.EnsureCoreset(v)
			warm = append(warm, time.Since(start).Seconds())
		})
		k.layer["core.absorb_coreset_us"] = median(absorb) * 1e6
		k.layer["core.ensure_coreset_warm_us"] = median(warm) * 1e6
		k.us("core.eval_subset_us", func() { eng.EvalSubset(v, peer.Items()) })
	}

	// radio: one compressed-model transfer at half the radio's range. The
	// fleet is rarely in contact when a pass ends, so the link is the radio
	// layer's own, not one read off the trace.
	dist := eng.Radio.Params.MaxRangeMeters / 2
	bytes := eng.CompressedModelBytes(0.5)
	k.us("radio.simulate_transfer_us", func() {
		eng.Radio.SimulateTransfer(bytes, func(float64) float64 { return dist }, v.Bandwidth, eng.Cfg.TimeBudget, rng)
	})
}

// fleetKernels times the layers a fleet-scale tick spends its time in, on
// the last pass's engine and on one row of its trace.
func fleetKernels(k *kernelTimer, w *fleetWorkload) error {
	eng := w.last.eng
	maxRange := eng.Radio.Params.MaxRangeMeters
	pts := append([]geom.Point(nil), eng.Trace.RowAt(eng.Now())...)

	ix := spatial.New(maxRange)
	k.us("spatial.rebuild_us", func() { ix.Rebuild(pts) })
	var pairs []spatial.Pair
	k.us("spatial.pairs_us", func() { pairs = ix.Pairs(pairs[:0], maxRange) })
	scanner := shard.NewScanner(4, 1)
	k.us("shard.scan_us", func() { pairs = scanner.Scan(pairs[:0], pts, maxRange) })

	// sched: one vehicle's trip through the due-time calendar — popped when
	// due, rescheduled a train interval later — at one due vehicle in a
	// hundred per tick.
	n := len(pts)
	cal := sched.NewCalendar(n)
	for id := 0; id < n; id++ {
		cal.Schedule(int32(id), int64(id%100))
	}
	var due []int32
	tick := int64(0)
	k.nsBatch("sched.calendar_cycle_ns", n, func() {
		for i := 0; i < 100; i++ {
			due, _ = cal.PopDue(tick, due[:0])
			for _, id := range due {
				cal.Schedule(id, tick+100)
			}
			tick++
		}
	})

	// trace: a fresh window's cursor walked over the file the way a pass
	// walks it, and row reads at the cursor. Most advances load nothing, so
	// the mean over the walk is the honest per-tick cost.
	win, closer, err := trace.OpenWindowFile(w.path, trace.WindowConfig{Prefetch: true})
	if err != nil {
		return err
	}
	defer closer.Close()
	step := int(eng.Cfg.TickSeconds / win.DT())
	advances := int(w.sz.fleetDur / eng.Cfg.TickSeconds)
	walk := k.rec.timed("kernel.trace.window_advance", func() {
		for i := 0; i < advances && err == nil; i++ {
			err = win.Advance(i * step)
		}
	})
	if err != nil {
		return err
	}
	k.layer["trace.window_advance_us"] = walk / float64(advances) * 1e6
	at := float64((advances-1)*step) * win.DT()
	k.nsBatch("trace.rowat_ns", 1000, func() {
		for i := 0; i < 1000; i++ {
			win.RowAt(at)
		}
	})

	k.us("core.candidate_pairs_us", func() {
		eng.CandidatePairs(func(a, b int) float64 { return 1 / (1 + eng.Distance(a, b)) })
	})
	return nil
}
