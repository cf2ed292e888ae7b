package shard

import (
	"lbchat/internal/geom"
	"lbchat/internal/parallel"
	"lbchat/internal/simrand"
)

// Fleet is a synthetic random-waypoint fleet: each vehicle drives toward a
// private waypoint at a private speed and draws the next waypoint from its
// own derived RNG stream on arrival. Because every vehicle owns its stream,
// a tick is embarrassingly parallel and bit-identical at any worker count —
// the scale workload of benchmarks/perf's fleet-scan, where the full world
// simulation would dominate the measurement.
type Fleet struct {
	// Side is the square arena's side length in meters.
	Side float64

	pts  []geom.Point
	tgt  []geom.Point
	spd  []float64
	rngs []*simrand.Rand
}

// NewFleet spawns n vehicles uniformly in a side×side arena with waypoint
// speeds of 5–20 m/s (urban driving range), deterministically from seed.
func NewFleet(seed uint64, n int, side float64) *Fleet {
	f := &Fleet{
		Side: side,
		pts:  make([]geom.Point, n),
		tgt:  make([]geom.Point, n),
		spd:  make([]float64, n),
		rngs: make([]*simrand.Rand, n),
	}
	root := simrand.New(seed)
	for i := 0; i < n; i++ {
		rng := root.DeriveIndexed("fleet", i)
		f.rngs[i] = rng
		f.pts[i] = geom.Pt(rng.Uniform(0, side), rng.Uniform(0, side))
		f.tgt[i] = geom.Pt(rng.Uniform(0, side), rng.Uniform(0, side))
		f.spd[i] = rng.Uniform(5, 20)
	}
	return f
}

// Len returns the vehicle count.
func (f *Fleet) Len() int { return len(f.pts) }

// Positions returns the current vehicle positions. The slice is owned by
// the fleet and mutated by Tick; callers needing a snapshot must copy.
func (f *Fleet) Positions() []geom.Point { return f.pts }

// Tick advances every vehicle by dt seconds on up to workers goroutines.
// Vehicles within dt·speed of their waypoint snap to it and draw the next
// one; per-vehicle RNG streams make the result independent of the worker
// count.
func (f *Fleet) Tick(dt float64, workers int) {
	parallel.ForEach(workers, len(f.pts), func(i int) {
		p, t := f.pts[i], f.tgt[i]
		step := f.spd[i] * dt
		d := p.Dist(t)
		if d <= step {
			f.pts[i] = t
			rng := f.rngs[i]
			f.tgt[i] = geom.Pt(rng.Uniform(0, f.Side), rng.Uniform(0, f.Side))
			f.spd[i] = rng.Uniform(5, 20)
			return
		}
		f.pts[i] = geom.Pt(p.X+(t.X-p.X)/d*step, p.Y+(t.Y-p.Y)/d*step)
	})
}
