package main

import (
	"fmt"
	"io"
	"math"
	"os"

	"lbchat/internal/core"
	"lbchat/internal/dataset"
	"lbchat/internal/geom"
	"lbchat/internal/radio"
	"lbchat/internal/shard"
	"lbchat/internal/telemetry"
	"lbchat/internal/trace"
)

// fleetScanDensityCell spaces the fleet at one vehicle per 250 m × 250 m,
// as the fleetscan experiment and the spatial benchmarks do, so the mean
// radio neighbourhood does not depend on the fleet size.
const fleetScanDensityCell = 250.0

// fleetWorkload is the fleet-scale, model-free workload: a synthetic
// random-waypoint fleet is written through trace.ChunkWriter in set-up and
// read back through a prefetching trace.Window by an engine whose vehicles
// hold no data and a two-unit model, under a protocol that only pairs
// vehicles up. The contact scan, the spatial index, the due-time calendar
// and the trace window do all the work; nn, tensor and compress do none.
type fleetWorkload struct {
	sz *sizing
	o  options

	path string
	// fresh is the engine set-up built, for the first pass to run.
	fresh *fleetEngine
	// last is the engine the last pass ran: the state for the kernel calls.
	last *fleetEngine
	// firstRow is the fleet's first recorded tick, for the seed check.
	firstRow []geom.Point
}

// fleetEngine is one pristine engine over its own window on the file.
type fleetEngine struct {
	eng    *core.Engine
	sum    *telemetry.Summary
	closer io.Closer
}

func (w *fleetWorkload) coldSetups() int  { return w.sz.fleetSetups }
func (w *fleetWorkload) rootSpan() string { return "core.run" }

func (w *fleetWorkload) close() {
	for _, fe := range []*fleetEngine{w.fresh, w.last} {
		if fe != nil {
			fe.closer.Close()
		}
	}
	w.fresh, w.last = nil, nil
	if w.path != "" {
		os.Remove(w.path)
		w.path = ""
	}
}

func (w *fleetWorkload) setUp(rec *recorder) (map[string]float64, error) {
	w.close()
	if err := os.MkdirAll(w.o.tmpDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(w.o.tmpDir, "fleet-scan-*.lbtc")
	if err != nil {
		return nil, err
	}
	w.path = f.Name()
	const dt = 0.5
	n := w.sz.fleetN
	fleet := shard.NewFleet(w.o.seed, n, fleetScanDensityCell*math.Sqrt(float64(n)))
	recordS := rec.timed("setup.fleet_record", func() {
		cw := trace.NewChunkWriter(f, dt, n, trace.DefaultChunkTicks)
		for t := 0; t < w.sz.fleetTicks; t++ {
			fleet.Tick(dt, 1)
			copy(cw.AppendRow(), fleet.Positions())
			if t == 0 {
				w.firstRow = append(w.firstRow[:0], fleet.Positions()...)
			}
		}
		err = cw.Close()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	})
	if err != nil {
		return nil, fmt.Errorf("writing fleet trace: %w", err)
	}
	info, err := os.Stat(w.path)
	if err != nil {
		return nil, err
	}
	engineS := rec.timed("setup.engine_new", func() {
		w.fresh, err = w.newEngine()
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"setup.fleet_record_s":   recordS,
		"trace.chunk_write_mb_s": float64(info.Size()) / (1 << 20) / recordS,
		"setup.engine_new_s":     engineS,
		"trace.file_mb":          float64(info.Size()) / (1 << 20),
	}, nil
}

// newEngine opens a prefetching window on the trace file and builds an
// engine over it with empty datasets and the tiny model of
// internal/core/train_bench_test.go, so 4096 policies cost nothing.
func (w *fleetWorkload) newEngine() (*fleetEngine, error) {
	win, closer, err := trace.OpenWindowFile(w.path, trace.WindowConfig{Prefetch: true})
	if err != nil {
		return nil, err
	}
	datasets := make([]*dataset.Dataset, w.sz.fleetN)
	for i := range datasets {
		datasets[i] = dataset.New(0)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = w.o.seed
	cfg.Workers = 1
	cfg.Model.UseConv = false
	cfg.Model.BEVChannels, cfg.Model.BEVHeight, cfg.Model.BEVWidth = 1, 2, 2
	cfg.Model.Hidden = 2
	cfg.Model.NumWaypoints = 1
	sum := telemetry.NewSummary()
	cfg.Telemetry = sum
	eng, err := core.NewEngine(cfg, win, datasets, radio.NewModel(false), nil)
	if err != nil {
		closer.Close()
		return nil, err
	}
	return &fleetEngine{eng: eng, sum: sum, closer: closer}, nil
}

// scanOnly is the protocol fleet-scan runs: pair up in-range vehicles by
// proximity and stamp their cooldowns, nothing else.
type scanOnly struct {
	maxRange                   float64
	pairs, matches, outOfRange int
}

func (s *scanOnly) Name() string             { return "scan-only" }
func (s *scanOnly) Setup(*core.Engine) error { return nil }

func (s *scanOnly) OnTick(e *core.Engine, now float64) {
	pairs := e.CandidatePairs(func(a, b int) float64 { return 1 / (1 + e.Distance(a, b)) })
	s.pairs += len(pairs)
	for _, p := range e.GreedyMatch(pairs) {
		if e.Distance(p.A, p.B) > s.maxRange {
			s.outOfRange++
		}
		e.MarkChatted(p.A, p.B, now+15)
		s.matches++
	}
}

func (w *fleetWorkload) pass(rec *recorder) (passOut, error) {
	fe := w.fresh
	w.fresh = nil
	if fe == nil {
		var err error
		if fe, err = w.newEngine(); err != nil {
			return passOut{}, err
		}
	}
	if w.last != nil {
		w.last.closer.Close()
	}
	w.last = fe

	proto := &scanOnly{maxRange: fe.eng.Radio.Params.MaxRangeMeters}
	out, err := runEngine(rec, fe.eng, fe.sum, proto, w.sz.fleetDur)
	if err != nil {
		return passOut{}, err
	}
	out.exact["core.candidate_pairs"] = float64(proto.pairs)
	out.exact["core.matches"] = float64(proto.matches)
	out.layer["core.candidate_pairs"] = float64(proto.pairs)
	out.layer["core.matches"] = float64(proto.matches)
	opened, closed := out.exact[telemetry.MContactsOpened], out.exact["contact.closed"]
	loads, evicts := out.exact[telemetry.MTraceLoads], out.exact[telemetry.MTraceEvicts]
	out.checks = append(out.checks,
		checkf("contacts-balanced", opened > 0 && opened == closed, "contact opens %v, closes %v", opened, closed),
		checkf("matches-in-range", proto.matches > 0 && proto.outOfRange == 0, "%d matches, %d beyond radio range", proto.matches, proto.outOfRange),
		checkf("window-slid", loads >= 1 && evicts >= 1, "trace window chunk loads %v, evicts %v", loads, evicts),
	)
	return out, nil
}

// replay: set-up's own spans already split it.
func (w *fleetWorkload) replay(*recorder) (map[string]float64, error) { return nil, nil }

func (w *fleetWorkload) extras(rec *recorder) (map[string]float64, []check, error) {
	layer := map[string]float64{}
	other := shard.NewFleet(w.o.seed+1, w.sz.fleetN, fleetScanDensityCell*math.Sqrt(float64(w.sz.fleetN)))
	other.Tick(0.5, 1)
	checks := []check{checkf("seed-wired", other.Positions()[0] != w.firstRow[0],
		"vehicle 0 starts at %v at seed %d and at seed %d", w.firstRow[0], w.o.seed, w.o.seed+1)}
	if err := fleetKernels(newKernelTimer(rec, w.sz, layer), w); err != nil {
		return nil, nil, fmt.Errorf("fleet kernels: %w", err)
	}
	return layer, checks, nil
}
