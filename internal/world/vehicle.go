package world

import (
	"math"

	"lbchat/internal/dataset"
	"lbchat/internal/geom"
	"lbchat/internal/simrand"
)

// Kinematic and controller constants for the expert autopilot.
const (
	maxAccel         = 3.0  // m/s²
	maxBrake         = 6.0  // m/s²
	followGap        = 22.0 // begin slowing for a leading vehicle at this gap (m)
	stopGap          = 7.0  // hard-stop gap (m)
	pedSlowGap       = 14.0 // begin slowing for a pedestrian ahead (m)
	pedStopGap       = 5.0  // hard-stop gap for pedestrians (m)
	turnSlowdown     = 0.6  // speed-limit factor while a turn command is active
	yieldLookahead   = 24.0 // begin yielding to an occupied intersection (m)
	yieldStopDist    = 9.0  // stop line before an occupied intersection (m)
	intersectionR    = 8.0  // radius of the intersection conflict disc (m)
	deadlockPatience = 8.0  // full-stop seconds before creeping (s)
	creepSpeed       = 1.0  // deadlock-breaking creep speed (m/s)
	vehicleRadius    = 1.5  // collision radius of a car (m)
	pedRadius        = 0.35 // collision radius of a pedestrian (m)
)

// Vehicle is a route-following car controlled by the expert autopilot: it
// tracks its route's lane centerline, obeys speed limits, and brakes for
// vehicles and pedestrians ahead. Expert vehicles are the paper's "expert
// autopilots" that both generate training data and act as moving peers;
// background vehicles use the same controller but never collect data.
type Vehicle struct {
	ID    int
	Route *Route
	// S is the arc position along the route (m).
	S float64
	// V is the current speed (m/s).
	V float64
	// Background marks pure-traffic vehicles.
	Background bool
	// roamLength is how far ahead the route is extended when running low.
	roamLength float64
	// stuckFor accumulates time spent fully stopped, for deadlock breaking.
	stuckFor float64
	rng      *simrand.Rand
}

// NewVehicle places a vehicle at the start of route.
func NewVehicle(id int, route *Route, rng *simrand.Rand) *Vehicle {
	return &Vehicle{ID: id, Route: route, roamLength: 600, rng: rng}
}

// Pos returns the vehicle's world position.
func (v *Vehicle) Pos() geom.Point { return v.Route.PosAt(v.S) }

// Heading returns the vehicle's heading (radians).
func (v *Vehicle) Heading() float64 { return v.Route.HeadingAt(v.S) }

// Frame returns the vehicle's ego frame.
func (v *Vehicle) Frame() geom.Frame {
	return geom.Frame{Origin: v.Pos(), Heading: v.Heading()}
}

// Command returns the active high-level command.
func (v *Vehicle) Command() dataset.Command { return v.Route.CommandAt(v.S) }

// desiredSpeed computes the target speed from the speed limit, upcoming
// turns, and obstacles ahead reported by the world.
func (v *Vehicle) desiredSpeed(w *World) float64 {
	target := v.Route.SpeedLimitAt(v.S)
	if cmd := v.Route.CommandAt(v.S); cmd != dataset.CmdFollow {
		target *= turnSlowdown
	}
	// Leading-vehicle gap control.
	if gap := w.nearestVehicleAhead(v); gap < followGap {
		if gap <= stopGap {
			return 0
		}
		target = math.Min(target, target*(gap-stopGap)/(followGap-stopGap))
	}
	// Pedestrian caution.
	if gap := w.nearestPedestrianAhead(v); gap < pedSlowGap {
		if gap <= pedStopGap {
			return 0
		}
		target = math.Min(target, target*(gap-pedStopGap)/(pedSlowGap-pedStopGap))
	}
	// Red light: hold at the stop line (signal state arrives over V2I).
	if red := redLightAhead(w.Map, v.Route, v.S, w.Time); !math.IsInf(red, 1) {
		if red <= 1.5 {
			return 0
		}
		target = math.Min(target, target*red/signalApproach+0.3)
	}
	// Intersection right of way: yield to traffic already in
	// the intersection ahead. The slow-down is visible in the expert's
	// waypoints, so the driving model learns to approach occupied
	// intersections cautiously — and the yielding itself prevents the
	// cross-traffic collisions an uncontrolled simulation would be full of.
	if nodeArc, ok := v.Route.NextInteriorNode(v.S, yieldLookahead); ok {
		distToNode := nodeArc - v.S
		if w.intersectionOccupied(v, v.Route.PosAt(nodeArc)) {
			if distToNode <= yieldStopDist {
				return 0
			}
			target = math.Min(target, target*(distToNode-yieldStopDist)/(yieldLookahead-yieldStopDist))
		}
	}
	return target
}

// Step advances the vehicle by dt seconds, extending its route when it runs
// low so roaming never terminates.
func (v *Vehicle) Step(w *World, dt float64) {
	target := v.desiredSpeed(w)
	// Deadlock breaking: two stopped vehicles waiting on each other (e.g. a
	// head-on standoff after a lane excursion) would wait forever. After a
	// long full stop, creep forward if nothing is immediately touching.
	if target <= 0 && v.V < 0.1 {
		v.stuckFor += dt
		if v.stuckFor > deadlockPatience && w.nearestVehicleAhead(v) > 3.2 {
			target = creepSpeed
		}
	} else {
		v.stuckFor = 0
	}
	if target > v.V {
		v.V = math.Min(target, v.V+maxAccel*dt)
	} else {
		v.V = math.Max(target, v.V-maxBrake*dt)
	}
	v.S += v.V * dt
	if v.S > v.Route.Length()-100 {
		// Best-effort extension; on pathological graphs the vehicle simply
		// stops at the end of its route.
		_ = v.Route.ExtendRandom(w.Map, v.roamLength, v.rng)
	}
	if v.S > v.Route.Length() {
		v.S = v.Route.Length()
	}
}
