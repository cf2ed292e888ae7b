package world

import (
	"fmt"
	"math"

	"lbchat/internal/geom"
	"lbchat/internal/simrand"
	"lbchat/internal/spatial"
)

// Spatial-index cell sizes (m), on the order of the dominant query radius
// so a query touches at most a 3×3 cell neighborhood: the widest vehicle
// query is the driving cone (followGap+10 ahead), the widest pedestrian
// query the caution cone (pedSlowGap+6 ahead).
const (
	vehIndexCell = followGap + 10
	pedIndexCell = pedSlowGap + 6
)

// FreeAgent is a vehicle not bound to a route polyline — the model-driven
// testing autopilot during online evaluation. The world includes free agents
// in proximity queries so background traffic reacts to them.
type FreeAgent struct {
	Pos     geom.Point
	Heading float64
	V       float64
}

// Frame returns the agent's ego frame.
func (a *FreeAgent) Frame() geom.Frame {
	return geom.Frame{Origin: a.Pos, Heading: a.Heading}
}

// World holds the full simulated environment and advances it in lockstep.
type World struct {
	Map         *Map
	Experts     []*Vehicle
	Background  []*Vehicle
	Pedestrians []*Pedestrian
	FreeAgents  []*FreeAgent

	// Time is the current simulation time in seconds.
	Time float64

	// vehIndex holds routed cars (Experts then Background, parallel to
	// idxVehicles); pedIndex holds pedestrians. Step updates them
	// entity-by-entity as it advances, so mid-step queries see exactly the
	// mixed old/new positions a sequential scan of the entities would, and
	// every step ends with both indices current; they are rebuilt only
	// after InvalidateIndex or a population change (ensureIndexes). Free
	// agents move outside Step and are deliberately NOT indexed: every
	// query scans them linearly (there are at most a handful).
	vehIndex    *spatial.Index
	pedIndex    *spatial.Index
	idxVehicles []*Vehicle
	ptsScratch  []geom.Point
	indexBuilt  bool

	// Result buffers of VehiclePositionsNearSeenBy / PedestrianPositionsNear.
	nearVehicles    []geom.Point
	nearPedestrians []geom.Point
}

// SpawnConfig sets the population of a world.
type SpawnConfig struct {
	// Experts is the number of data-collecting autopilot vehicles (the
	// paper runs 32).
	Experts int
	// BackgroundCars is the roaming traffic count (the paper adds 50).
	BackgroundCars int
	// Pedestrians is the walker count (the paper adds 250).
	Pedestrians int
}

// New creates a world on the given map and spawns its population
// deterministically from rng.
func New(m *Map, spawn SpawnConfig, rng *simrand.Rand) (*World, error) {
	w := &World{Map: m}
	numNodes := len(m.Nodes)
	if numNodes == 0 {
		return nil, fmt.Errorf("world: empty map")
	}
	for i := 0; i < spawn.Experts; i++ {
		vr := rng.DeriveIndexed("expert", i)
		route, err := RandomWalkRoute(m, NodeID(vr.Intn(numNodes)), 600, vr)
		if err != nil {
			return nil, fmt.Errorf("world: spawning expert %d: %w", i, err)
		}
		v := NewVehicle(i, route, vr)
		v.S = vr.Uniform(0, route.Length()/2)
		w.Experts = append(w.Experts, v)
	}
	for i := 0; i < spawn.BackgroundCars; i++ {
		vr := rng.DeriveIndexed("bg", i)
		route, err := RandomWalkRoute(m, NodeID(vr.Intn(numNodes)), 600, vr)
		if err != nil {
			return nil, fmt.Errorf("world: spawning background car %d: %w", i, err)
		}
		v := NewVehicle(1000+i, route, vr)
		v.Background = true
		v.S = vr.Uniform(0, route.Length()/2)
		w.Background = append(w.Background, v)
	}
	for i := 0; i < spawn.Pedestrians; i++ {
		w.Pedestrians = append(w.Pedestrians, NewPedestrian(i, m, rng.DeriveIndexed("ped", i)))
	}
	return w, nil
}

// InvalidateIndex discards the spatial indices so the next query or Step
// rebuilds them. Call it after mutating entity positions outside Step (e.g.
// teleport adjustments at spawn time) or replacing an entity in place: Step
// keeps the indices current for the moves it makes itself and does not
// re-read positions it did not change.
func (w *World) InvalidateIndex() { w.indexBuilt = false }

// ensureIndexes lazily (re)builds the indices before a query or a step. A
// population change (entities appended or removed since the last build)
// also triggers a rebuild.
func (w *World) ensureIndexes() {
	if w.indexBuilt &&
		len(w.idxVehicles) == len(w.Experts)+len(w.Background) &&
		w.pedIndex.Len() == len(w.Pedestrians) {
		return
	}
	w.rebuildIndexes()
}

// rebuildIndexes re-indexes every routed car and pedestrian at its current
// position. Scratch slices are reused, so steady-state rebuilds allocate
// nothing.
func (w *World) rebuildIndexes() {
	if w.vehIndex == nil {
		w.vehIndex = spatial.New(vehIndexCell)
		w.pedIndex = spatial.New(pedIndexCell)
	}
	w.idxVehicles = w.idxVehicles[:0]
	w.idxVehicles = append(w.idxVehicles, w.Experts...)
	w.idxVehicles = append(w.idxVehicles, w.Background...)
	pts := w.ptsScratch[:0]
	for _, v := range w.idxVehicles {
		pts = append(pts, v.Pos())
	}
	w.vehIndex.Rebuild(pts)
	pts = pts[:0]
	for _, p := range w.Pedestrians {
		pts = append(pts, p.Pos)
	}
	w.pedIndex.Rebuild(pts)
	w.ptsScratch = pts[:0]
	w.indexBuilt = true
}

// Step advances every entity by dt seconds. The spatial indices — current
// on entry, or rebuilt here after an invalidation or population change —
// are updated entity by entity as each one moves, so the in-step proximity
// queries (which run while part of the fleet has moved and part has not)
// see exactly the same mixed state as a sequential scan of the entities
// would, and the next step finds them current again.
func (w *World) Step(dt float64) {
	w.ensureIndexes()
	for i, v := range w.Experts {
		v.Step(w, dt)
		w.vehIndex.Update(i, v.Pos())
	}
	off := len(w.Experts)
	for i, v := range w.Background {
		v.Step(w, dt)
		w.vehIndex.Update(off+i, v.Pos())
	}
	for i, p := range w.Pedestrians {
		p.Step(w, dt)
		w.pedIndex.Update(i, p.Pos)
	}
	w.Time += dt
}

// AllVehiclePositions returns the positions of every car except the one with
// ID excludeID (-1 excludes nothing), including free agents.
func (w *World) AllVehiclePositions(excludeID int) []geom.Point {
	return w.VehiclePositionsSeenBy(excludeID, nil)
}

// VehiclePositionsSeenBy returns every car position visible to an observer:
// excludeID removes a routed vehicle observing itself, excludeAgent removes
// a free agent observing itself (an agent must never appear in its own BEV).
func (w *World) VehiclePositionsSeenBy(excludeID int, excludeAgent *FreeAgent) []geom.Point {
	out := make([]geom.Point, 0, len(w.Experts)+len(w.Background)+len(w.FreeAgents))
	for _, v := range w.Experts {
		if v.ID != excludeID {
			out = append(out, v.Pos())
		}
	}
	for _, v := range w.Background {
		if v.ID != excludeID {
			out = append(out, v.Pos())
		}
	}
	for _, a := range w.FreeAgents {
		if a != excludeAgent {
			out = append(out, a.Pos)
		}
	}
	return out
}

// VehiclePositionsNearSeenBy returns the positions of cars that may lie
// within radius r of center — a SUPERSET of the cars actually inside the
// disc (grid-cell granularity; free agents are always included). It is the
// BEV culling fast path: callers apply their own exact window test per
// entity, so a superset changes nothing. Exclusion semantics match
// VehiclePositionsSeenBy. The result aliases a buffer the world reuses: it
// is valid until the next VehiclePositionsNearSeenBy call on this world.
func (w *World) VehiclePositionsNearSeenBy(center geom.Point, r float64, excludeID int, excludeAgent *FreeAgent) []geom.Point {
	w.ensureIndexes()
	out := w.nearVehicles[:0]
	w.vehIndex.ForCandidates(center, r, func(i int, p geom.Point) bool {
		if w.idxVehicles[i].ID != excludeID {
			out = append(out, p)
		}
		return true
	})
	for _, a := range w.FreeAgents {
		if a != excludeAgent {
			out = append(out, a.Pos)
		}
	}
	w.nearVehicles = out
	return out
}

// PedestrianPositions returns all pedestrian positions.
func (w *World) PedestrianPositions() []geom.Point {
	out := make([]geom.Point, len(w.Pedestrians))
	for i, p := range w.Pedestrians {
		out[i] = p.Pos
	}
	return out
}

// PedestrianPositionsNear returns the positions of pedestrians that may lie
// within radius r of center — a superset at grid-cell granularity, like
// VehiclePositionsNearSeenBy, and like it valid until the next
// PedestrianPositionsNear call on this world (the two use separate buffers,
// so one result of each can be held at once).
func (w *World) PedestrianPositionsNear(center geom.Point, r float64) []geom.Point {
	w.ensureIndexes()
	out := w.nearPedestrians[:0]
	w.pedIndex.ForCandidates(center, r, func(_ int, p geom.Point) bool {
		out = append(out, p)
		return true
	})
	w.nearPedestrians = out
	return out
}

// aheadDistance returns the forward distance to point p within a driving
// cone of the frame (ahead up to maxDist, lateral half-width corridor), or
// +Inf when p is outside the cone. It takes the frame's precomputed form:
// a cone query builds it once, not once per candidate.
func aheadDistance(frame geom.LocalFrame, p geom.Point, maxDist, corridor float64) float64 {
	local := frame.ToLocal(p)
	if local.X <= 0 || local.X > maxDist {
		return math.Inf(1)
	}
	if math.Abs(local.Y) > corridor {
		return math.Inf(1)
	}
	return local.X
}

// nearestVehicleAhead returns the gap to the closest car in v's driving
// cone (excluding v itself).
func (w *World) nearestVehicleAhead(v *Vehicle) float64 {
	ego := v.Frame()
	frame := ego.Local()
	const maxDist, corridor = followGap + 10, 3.0
	best := math.Inf(1)
	consider := func(p geom.Point) {
		if d := aheadDistance(frame, p, maxDist, corridor); d < best {
			best = d
		}
	}
	w.ensureIndexes()
	// Everything in the cone lies within its circumradius of the ego.
	bound := math.Hypot(maxDist, corridor)
	w.vehIndex.ForCandidates(ego.Origin, bound, func(i int, p geom.Point) bool {
		if w.idxVehicles[i].ID != v.ID {
			consider(p)
		}
		return true
	})
	for _, a := range w.FreeAgents {
		consider(a.Pos)
	}
	return best
}

// nearestPedestrianAhead returns the gap to the closest pedestrian in v's
// caution cone.
func (w *World) nearestPedestrianAhead(v *Vehicle) float64 {
	ego := v.Frame()
	frame := ego.Local()
	const maxDist, corridor = pedSlowGap + 6, 2.5
	best := math.Inf(1)
	w.ensureIndexes()
	bound := math.Hypot(maxDist, corridor)
	w.pedIndex.ForCandidates(ego.Origin, bound, func(_ int, p geom.Point) bool {
		if d := aheadDistance(frame, p, maxDist, corridor); d < best {
			best = d
		}
		return true
	})
	return best
}

// intersectionOccupied reports whether another car currently occupies the
// conflict disc around an intersection ahead of v (cars behind v are
// ignored — they are followers, not crossing traffic).
func (w *World) intersectionOccupied(v *Vehicle, node geom.Point) bool {
	frame := v.Frame().Local()
	occupied := func(p geom.Point) bool {
		if p.Dist(node) > intersectionR {
			return false
		}
		return frame.ToLocal(p).X > 2
	}
	w.ensureIndexes()
	found := false
	w.vehIndex.ForCandidates(node, intersectionR, func(i int, p geom.Point) bool {
		if w.idxVehicles[i].ID != v.ID && occupied(p) {
			found = true
			return false
		}
		return true
	})
	if found {
		return true
	}
	for _, a := range w.FreeAgents {
		if occupied(a.Pos) {
			return true
		}
	}
	return false
}

// anyCarNear reports whether any car (expert, background, or free agent)
// is within r of pos and moving.
func (w *World) anyCarNear(pos geom.Point, r float64) bool {
	w.ensureIndexes()
	found := false
	w.vehIndex.ForCandidates(pos, r, func(i int, p geom.Point) bool {
		if w.idxVehicles[i].V > 0.5 && pos.Dist(p) < r {
			found = true
			return false
		}
		return true
	})
	if found {
		return true
	}
	for _, a := range w.FreeAgents {
		if a.V > 0.5 && pos.Dist(a.Pos) < r {
			return true
		}
	}
	return false
}

// CollisionAt reports whether a car body at pos (with standard vehicle
// radius) overlaps any other car or pedestrian. excludeID removes one
// expert/background car from the check (the agent itself when it is a
// routed vehicle; pass -1 for free agents).
func (w *World) CollisionAt(pos geom.Point, excludeID int) bool {
	const carGap = 2 * vehicleRadius
	const pedGap = vehicleRadius + pedRadius
	w.ensureIndexes()
	hit := false
	w.vehIndex.ForCandidates(pos, carGap, func(i int, p geom.Point) bool {
		if w.idxVehicles[i].ID != excludeID && pos.Dist(p) < carGap {
			hit = true
			return false
		}
		return true
	})
	if hit {
		return true
	}
	w.pedIndex.ForCandidates(pos, pedGap, func(_ int, p geom.Point) bool {
		if pos.Dist(p) < pedGap {
			hit = true
			return false
		}
		return true
	})
	return hit
}
