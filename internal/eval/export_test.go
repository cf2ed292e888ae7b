package eval

import (
	"math"

	"lbchat/internal/geom"
	"lbchat/internal/world"
)

// routeProgress is trial.progress as it was before trials kept their route
// samples: the whole route re-sampled every 5 m on every call. It is the
// oracle the trial's progress must reproduce bit for bit.
func routeProgress(route *world.Route, pos geom.Point) (arc, lateral float64) {
	best := geom.NewNearest(pos)
	bestArc := 0.0
	for s := 0.0; s <= route.Length(); s += 5 {
		if best.Closer(route.PosAt(s)) {
			bestArc = s
		}
	}
	for s := math.Max(0, bestArc-5); s <= math.Min(route.Length(), bestArc+5); s += 0.5 {
		if best.Closer(route.PosAt(s)) {
			bestArc = s
		}
	}
	return bestArc, best.Dist
}

// RouteProgress exposes routeProgress to the external tests.
var RouteProgress = routeProgress

// NewTrial and ControlStep expose one trial's control loop to the external
// tests.
func (ev *Evaluator) NewTrial(policy Driver, cond Condition, route *world.Route, seed uint64, agent *world.FreeAgent) (*trial, error) {
	return ev.newTrial(policy, cond, route, seed, agent)
}

func (tr *trial) ControlStep() (frame geom.Frame, arc, lateral float64) { return tr.controlStep() }
