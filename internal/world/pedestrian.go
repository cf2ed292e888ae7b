package world

import (
	"math"

	"lbchat/internal/geom"
	"lbchat/internal/simrand"
)

// Pedestrian is a random-waypoint walker roaming the whole map off the
// drivable surface, crossing roads only while traveling between targets —
// like CARLA's pedestrians, who keep to sidewalks and open ground and cross
// occasionally. Crossing pedestrians are the hazard the driving model must
// learn to brake for.
type Pedestrian struct {
	ID        int
	Pos       geom.Point
	target    geom.Point
	speed     float64
	waitUntil float64 // dwell at the current spot until this world time
	rng       *simrand.Rand
	bounds    geom.Point // map extent for target sampling
	// onRoad is IsRoad(onRoadAt), carried from the step that moved here; a
	// Pos written from outside differs from onRoadAt and is asked afresh.
	onRoad   bool
	onRoadAt geom.Point
}

// NewPedestrian spawns a pedestrian at a random off-road position.
func NewPedestrian(id int, m *Map, rng *simrand.Rand) *Pedestrian {
	w, h := m.Bounds()
	p := &Pedestrian{
		ID:     id,
		rng:    rng,
		bounds: geom.Pt(w, h),
		speed:  rng.Uniform(1.0, 1.7),
	}
	p.Pos = p.samplePoint(m)
	p.target = p.samplePoint(m)
	p.onRoadAt = geom.Pt(math.NaN(), math.NaN()) // equal to no Pos
	return p
}

// samplePoint picks a uniformly random off-road target, so walking legs
// cross roads transiently but pedestrians never linger on them.
func (p *Pedestrian) samplePoint(m *Map) geom.Point {
	for tries := 0; tries < 64; tries++ {
		cand := geom.Pt(p.rng.Uniform(0, p.bounds.X), p.rng.Uniform(0, p.bounds.Y))
		if !m.IsRoad(cand) {
			return cand
		}
	}
	return geom.Pt(p.rng.Uniform(0, p.bounds.X), p.rng.Uniform(0, p.bounds.Y))
}

// yieldDistance is how close an approaching car may get before a pedestrian
// waits instead of stepping onto the road. Real pedestrians (and CARLA
// walkers) do not walk into moving vehicles.
const yieldDistance = 9.0

// Step advances the pedestrian toward its target, re-sampling a new target
// on arrival. Before entering the drivable surface the pedestrian yields to
// nearby moving cars.
func (p *Pedestrian) Step(w *World, dt float64) {
	m := w.Map
	if w.Time < p.waitUntil {
		return
	}
	to := p.target.Sub(p.Pos)
	dist := to.Norm()
	if dist < 1.0 {
		// Arrived: dwell a while, like a real pedestrian at a storefront,
		// then pick the next destination. Dwell keeps the instantaneous
		// share of road-crossing pedestrians low, as in CARLA.
		p.target = p.samplePoint(m)
		p.waitUntil = w.Time + p.rng.Uniform(10, 60)
		return
	}
	// to.Unit(), without the second Hypot: dist ≥ 1 is its norm.
	next := p.Pos.Add(geom.Pt(to.X/dist, to.Y/dist).Scale(p.speed * dt))
	// Yield only when about to STEP ONTO the road: once crossing, keep
	// moving and clear the lane (a pedestrian frozen mid-road would be a
	// guaranteed collision).
	nextOnRoad := m.IsRoad(next)
	if nextOnRoad && !p.isRoad(m) && w.anyCarNear(next, yieldDistance) {
		return // wait at the curb
	}
	p.Pos = next
	p.onRoad, p.onRoadAt = nextOnRoad, next
}

// isRoad reports whether the pedestrian stands on the road, answered by
// the carried IsRoad when it was taken at Pos.
func (p *Pedestrian) isRoad(m *Map) bool {
	if p.Pos != p.onRoadAt {
		p.onRoad, p.onRoadAt = m.IsRoad(p.Pos), p.Pos
	}
	return p.onRoad
}
