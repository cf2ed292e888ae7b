package experiments

import (
	"context"
	"io"
	"math"
	"runtime"
	"time"

	"lbchat/internal/metrics"
	"lbchat/internal/radio"
	"lbchat/internal/shard"
	"lbchat/internal/spatial"
	"lbchat/internal/trace"
)

// fleetScanDensityCell is the arena scaling constant: one vehicle per
// 250 m × 250 m on average, matching the spatial benchmarks, so the mean
// in-range neighborhood (~13 peers at 500 m) is size-independent and per-tick
// cost differences reflect the scan machinery, not density drift.
const fleetScanDensityCell = 250.0

// runFleetScan executes the fleetscan scale workload: a synthetic
// random-waypoint fleet is ticked for the spec duration while every tick's
// radio-range pairs are enumerated through the spatial index — the engine's
// scan — and its positions stream through a ChunkWriter, so a 10k-vehicle
// trace never sits in memory. The result table reports wall-clock, per-tick
// rate, peak heap, and pair throughput.
func runFleetScan(ctx context.Context, x *Experiment, spec Spec) (*Result, error) {
	n := spec.Vehicles
	if n <= 0 {
		n = 2048
	}
	dur := spec.Duration
	if dur <= 0 {
		dur = 60
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	const dt = 0.5
	ticks := max(int(dur/dt), 1)
	maxRange := radio.NewModel(false).Params.MaxRangeMeters
	side := fleetScanDensityCell * math.Sqrt(float64(n))
	fleet := shard.NewFleet(seed, n, side)

	ix := spatial.New(maxRange)
	cw := trace.NewChunkWriter(io.Discard, dt, n, trace.DefaultChunkTicks)

	var pairs []spatial.Pair
	totalPairs := 0
	peakHeap := heapInUse()
	start := time.Now()
	done := 0
	for t := 0; t < ticks; t++ {
		if err := ctx.Err(); err != nil {
			break
		}
		fleet.Tick(dt, spec.Workers)
		pts := fleet.Positions()
		copy(cw.AppendRow(), pts)
		ix.Rebuild(pts)
		pairs = ix.Pairs(pairs[:0], maxRange)
		totalPairs += len(pairs)
		done++
		if t%16 == 15 {
			if h := heapInUse(); h > peakHeap {
				peakHeap = h
			}
		}
	}
	wall := time.Since(start)
	if err := cw.Close(); err != nil {
		return nil, err
	}
	if h := heapInUse(); h > peakHeap {
		peakHeap = h
	}

	tbl := metrics.NewTable(x.Caption, "value")
	tbl.AddRow("vehicles", float64(n))
	tbl.AddRow("ticks", float64(done))
	tbl.AddRow("wall ms", float64(wall.Milliseconds()))
	if wall > 0 {
		tbl.AddRow("ticks per s", float64(done)/wall.Seconds())
	}
	tbl.AddRow("peak heap MB", float64(peakHeap)/(1<<20))
	if done > 0 {
		tbl.AddRow("pairs per tick", float64(totalPairs)/float64(done))
	}
	return &Result{
		Table:    tbl,
		Text:     tbl.Render(),
		Canceled: ctx.Err() != nil,
	}, nil
}

// heapInUse samples the live heap size.
func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}
