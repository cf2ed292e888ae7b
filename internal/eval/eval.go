package eval

import (
	"fmt"
	"math"

	"lbchat/internal/bev"
	"lbchat/internal/dataset"
	"lbchat/internal/geom"
	"lbchat/internal/simrand"
	"lbchat/internal/world"
)

// Condition is a driving-benchmark difficulty tier.
type Condition int

// Benchmark conditions, in the paper's difficulty order.
const (
	CondStraight Condition = iota + 1
	CondOneTurn
	CondNaviEmpty
	CondNaviNormal
	CondNaviDense
)

// Conditions lists all tiers in presentation order.
var Conditions = []Condition{CondStraight, CondOneTurn, CondNaviEmpty, CondNaviNormal, CondNaviDense}

// String returns the paper's row label for the condition.
func (c Condition) String() string {
	switch c {
	case CondStraight:
		return "Straight"
	case CondOneTurn:
		return "One Turn"
	case CondNaviEmpty:
		return "Navi. (Empty)"
	case CondNaviNormal:
		return "Navi. (Normal)"
	case CondNaviDense:
		return "Navi. (Dense)"
	default:
		return fmt.Sprintf("Condition(%d)", int(c))
	}
}

// trafficFor returns the background population for a condition. Navi
// (Dense) runs 1.2× the normal roaming cars and pedestrians, as in §IV-D.
func trafficFor(c Condition, normal world.SpawnConfig) world.SpawnConfig {
	switch c {
	case CondStraight, CondOneTurn, CondNaviEmpty:
		return world.SpawnConfig{}
	case CondNaviDense:
		return world.SpawnConfig{
			BackgroundCars: int(math.Round(1.2 * float64(normal.BackgroundCars))),
			Pedestrians:    int(math.Round(1.2 * float64(normal.Pedestrians))),
		}
	default:
		return world.SpawnConfig{
			BackgroundCars: normal.BackgroundCars,
			Pedestrians:    normal.Pedestrians,
		}
	}
}

// Suite is a set of benchmark routes per condition on one map.
type Suite struct {
	Map    *world.Map
	Routes map[Condition][]*world.Route
}

// SuiteConfig controls route generation.
type SuiteConfig struct {
	// RoutesPerCondition is the number of distinct routes per tier.
	RoutesPerCondition int
	// Seed drives route selection.
	Seed uint64
}

// BuildSuite samples benchmark routes from the map: straight runs (no
// turns), single-turn routes, and long multi-turn navigation routes. The
// same navigation routes serve the Empty/Normal/Dense tiers, mirroring the
// paper ("the same full navigation routes but with traffic").
func BuildSuite(m *world.Map, cfg SuiteConfig) (*Suite, error) {
	if cfg.RoutesPerCondition <= 0 {
		return nil, fmt.Errorf("eval: non-positive route quota %d", cfg.RoutesPerCondition)
	}
	rng := simrand.New(cfg.Seed)
	s := &Suite{Map: m, Routes: make(map[Condition][]*world.Route)}

	type spec struct {
		cond      Condition
		turns     func(int) bool
		minLength float64
		maxLength float64
	}
	specs := []spec{
		{CondStraight, func(t int) bool { return t == 0 }, 200, 500},
		{CondOneTurn, func(t int) bool { return t == 1 }, 220, 550},
		{CondNaviEmpty, func(t int) bool { return t >= 2 }, 400, 1200},
	}
	numNodes := len(m.Nodes)
	for _, sp := range specs {
		var routes []*world.Route
		for attempt := 0; attempt < 20000 && len(routes) < cfg.RoutesPerCondition; attempt++ {
			src := world.NodeID(rng.Intn(numNodes))
			dst := world.NodeID(rng.Intn(numNodes))
			if src == dst {
				continue
			}
			path, err := m.ShortestPath(src, dst)
			if err != nil {
				continue
			}
			r, err := world.NewRoute(m, path)
			if err != nil {
				continue
			}
			if !sp.turns(r.NumTurns()) || r.Length() < sp.minLength || r.Length() > sp.maxLength {
				continue
			}
			routes = append(routes, r)
		}
		if len(routes) == 0 {
			return nil, fmt.Errorf("eval: no routes found for %v", sp.cond)
		}
		s.Routes[sp.cond] = routes
	}
	// Normal and Dense reuse the navigation routes.
	s.Routes[CondNaviNormal] = s.Routes[CondNaviEmpty]
	s.Routes[CondNaviDense] = s.Routes[CondNaviEmpty]
	return s, nil
}

// Outcome describes one trial's result.
type Outcome int

// Trial outcomes.
const (
	OutcomeSuccess Outcome = iota + 1
	OutcomeCollision
	OutcomeOffRoad
	OutcomeTimeout
)

// String returns the outcome name.
func (o Outcome) String() string {
	switch o {
	case OutcomeSuccess:
		return "success"
	case OutcomeCollision:
		return "collision"
	case OutcomeOffRoad:
		return "off-road"
	case OutcomeTimeout:
		return "timeout"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Driver produces waypoint predictions for the testing autopilot.
// *model.Policy implements it; tests substitute oracles.
type Driver interface {
	// Predict maps a BEV tensor, normalized ego speed, normalized distance
	// to the next maneuver, normalized red-light distance, and command to
	// normalized ego-frame waypoints (x0, y0, x1, y1, ...).
	Predict(bev []uint8, speed, navDist, redDist float64, cmd dataset.Command) []float64
}

// Evaluator runs closed-loop driving trials.
type Evaluator struct {
	Suite *Suite
	// NormalTraffic is the population scaled per condition.
	NormalTraffic world.SpawnConfig
	// DT is the control period (s). Data collection runs at the paper's
	// 2 fps, but the driving controller runs at 5 Hz — closed-loop
	// stability needs a faster loop than data logging, as for CARLA agents.
	DT float64
}

// graceSeconds ignores collisions immediately after spawn, before the agent
// has had a chance to act (spawn-overlap artifacts).
const graceSeconds = 3

// NewEvaluator returns an evaluator with the experiment defaults: the
// paper's traffic population and 5 Hz control.
func NewEvaluator(s *Suite) *Evaluator {
	return &Evaluator{
		Suite:         s,
		NormalTraffic: world.SpawnConfig{BackgroundCars: 50, Pedestrians: 250},
		DT:            0.2,
	}
}

// RunTrial drives the policy along one route under the condition's traffic
// and returns the outcome.
func (ev *Evaluator) RunTrial(policy Driver, cond Condition, route *world.Route, seed uint64) Outcome {
	// Spawn a few meters INTO the first edge: route start nodes are often
	// intersections, where an unguided ("follow") agent facing four roads
	// has no way to know which one the route takes.
	s0 := math.Min(12, route.Length()/4)
	agent := &world.FreeAgent{
		Pos:     route.PosAt(s0),
		Heading: route.HeadingAt(s0),
	}
	return ev.RunTrialReport(policy, cond, route, seed, agent).Outcome
}

// TrialReport carries a trial's outcome plus termination diagnostics.
type TrialReport struct {
	Outcome Outcome
	// Time is the virtual time at termination (s).
	Time float64
	// Arc is the final on-route progress (m); RouteLength the route length.
	Arc, RouteLength float64
	// AgentSpeed is the agent's speed at termination (m/s).
	AgentSpeed float64
	// HitKind classifies collisions: "car-front", "car-side", "car-behind",
	// or "pedestrian"; empty for non-collision outcomes.
	HitKind string
}

// trial is the live state of one closed-loop run: a private world with the
// condition's traffic, the testing agent in it, and the control stack that
// drives the agent along the route.
type trial struct {
	ev     *Evaluator
	w      *world.World
	ras    *bev.Rasterizer
	ctrl   *controller
	policy Driver
	route  *world.Route
	agent  *world.FreeAgent
	// samples are the route's points every 5 m from its start, taken on
	// the first control step. They live here, not on the route: suite
	// routes are shared by trials running in parallel.
	samples []geom.Point
}

// newTrial spawns the trial's world from seed and places agent in it.
func (ev *Evaluator) newTrial(policy Driver, cond Condition, route *world.Route, seed uint64, agent *world.FreeAgent) (*trial, error) {
	w, err := world.New(ev.Suite.Map, trafficFor(cond, ev.NormalTraffic), simrand.New(seed))
	if err != nil {
		return nil, err
	}
	w.FreeAgents = append(w.FreeAgents, agent)
	// Clean spawn, as in the CARLA benchmark: background cars parked on top
	// of the agent's start would deadlock the trial before it begins.
	for _, bg := range w.Background {
		if bg.Pos().Dist(agent.Pos) < 30 {
			bg.S += 60
			if bg.S > bg.Route.Length() {
				bg.S = bg.Route.Length()
			}
		}
	}
	// Positions were teleported outside Step; drop any spatial index built
	// over the pre-adjustment state.
	w.InvalidateIndex()
	// The rasterizer's geometry is the policy input's (model.DefaultConfig).
	cfg := bev.DefaultConfig()
	return &trial{
		ev: ev, w: w, ras: bev.NewRasterizer(cfg, ev.Suite.Map), ctrl: newController(cfg),
		policy: policy, route: route, agent: agent,
	}, nil
}

// controlStep runs one control period — perceive, act, advance the rest of
// the world — and returns what the judge needs: the frame the agent
// perceived from and its route projection before it acted. Apart from the
// BEV tensor (and whatever the driver allocates) a steady-state step
// allocates nothing.
func (tr *trial) controlStep() (frame geom.Frame, arc, lateral float64) {
	ev, w, agent, route := tr.ev, tr.w, tr.agent, tr.route
	// Perceive.
	frame = agent.Frame()
	cfg := tr.ras.Config()
	bevT := tr.ras.Rasterize(frame,
		w.VehiclePositionsNearSeenBy(frame.Origin, cfg.VehicleCullRadius(), -1, agent),
		w.PedestrianPositionsNear(frame.Origin, cfg.PedestrianCullRadius()))
	arc, lateral = tr.progress(agent.Pos)
	cmd := route.CommandAt(arc)
	// Act.
	pred := tr.policy.Predict(bevT, agent.V/world.SpeedNorm, world.NavDistAt(route, arc),
		world.RedDistInput(ev.Suite.Map, route, arc, w.Time), cmd)
	tr.ctrl.step(agent, pred, bevT, ev.DT)
	// Advance the rest of the world.
	w.Step(ev.DT)
	return frame, arc, lateral
}

// RunTrialReport runs a trial with a caller-provided testing agent —
// oracles and instrumented drivers hold a reference to the live agent — and
// returns its outcome with termination diagnostics.
func (ev *Evaluator) RunTrialReport(policy Driver, cond Condition, route *world.Route, seed uint64, agent *world.FreeAgent) TrialReport {
	tr, err := ev.newTrial(policy, cond, route, seed, agent)
	if err != nil {
		return TrialReport{Outcome: OutcomeTimeout, RouteLength: route.Length()}
	}

	// Budget: generous time at a conservative average speed.
	timeLimit := route.Length()/2.5 + 60

	var lastArc float64
	for t := 0.0; t < timeLimit; t += ev.DT {
		frame, arc, lateral := tr.controlStep()
		lastArc = arc
		// Judge.
		// Destination reached: the agent is on the final on-route stretch
		// just before the terminal node. (Requiring proximity to the node
		// itself would turn every goal at an intersection into a lottery
		// over which exit road the unguided agent picks.)
		report := func(o Outcome, hit string) TrialReport {
			return TrialReport{
				Outcome: o, Time: t, Arc: arc, RouteLength: route.Length(),
				AgentSpeed: agent.V, HitKind: hit,
			}
		}
		if arc > route.Length()-18 && lateral < 6 {
			return report(OutcomeSuccess, "")
		}
		if t > graceSeconds {
			if tr.w.CollisionAt(agent.Pos, -1) {
				return report(OutcomeCollision, classifyHitDetailed(tr.w, frame, agent.Pos))
			}
			// The paper's criterion is reaching the destination in time
			// without collision; brushing a corner is not failure. Leaving
			// the route corridor entirely is hopeless, so it is called
			// early rather than waiting out the clock.
			if lateral > 14 {
				return report(OutcomeOffRoad, "")
			}
		}
	}
	return TrialReport{
		Outcome: OutcomeTimeout, Time: timeLimit, Arc: lastArc,
		RouteLength: route.Length(), AgentSpeed: agent.V,
	}
}

// classifyHit labels the entity a colliding agent struck, by proximity and
// bearing in the agent frame.
func classifyHit(w *world.World, frame geom.Frame, pos geom.Point) string {
	minCar, minPed := math.Inf(1), math.Inf(1)
	var carLocal geom.Point
	for _, p := range w.AllVehiclePositions(-1) {
		if d := pos.Dist(p); d < minCar {
			minCar, carLocal = d, frame.ToLocal(p)
		}
	}
	for _, p := range w.PedestrianPositions() {
		if d := pos.Dist(p); d < minPed {
			minPed = d
		}
	}
	switch {
	case minPed < minCar:
		return "pedestrian"
	case carLocal.X < 0:
		return "car-behind"
	case math.Abs(carLocal.Y) > 1.8:
		return "car-side"
	default:
		return "car-front"
	}
}

// classifyHitDetailed adds the struck car's travel direction relative to the
// agent: "oncoming" (≈180°), "crossing" (≈±90°), or "ahead" (same way).
func classifyHitDetailed(w *world.World, frame geom.Frame, pos geom.Point) string {
	base := classifyHit(w, frame, pos)
	if base == "pedestrian" {
		return base
	}
	best := math.Inf(1)
	var rel float64
	consider := func(p geom.Point, heading float64) {
		if d := pos.Dist(p); d < best {
			best = d
			rel = math.Abs(geom.WrapAngle(heading - frame.Heading))
		}
	}
	for _, v := range w.Experts {
		consider(v.Pos(), v.Heading())
	}
	for _, v := range w.Background {
		consider(v.Pos(), v.Heading())
	}
	switch {
	case rel > 2.3:
		return base + "-oncoming"
	case rel > 0.8:
		return base + "-crossing"
	default:
		return base + "-sameway"
	}
}

// progress projects the agent onto the route, returning its arc position
// and lateral deviation.
func (tr *trial) progress(pos geom.Point) (arc, lateral float64) {
	// Project onto the route's lane polyline via dense sampling: routes are
	// a few hundred meters, so a 5 m scan plus local refinement is plenty.
	// geom.Nearest screens on squared distance, so only samples that can
	// improve on the best pay for a Hypot.
	route := tr.route
	if tr.samples == nil {
		for s := 0.0; s <= route.Length(); s += 5 {
			tr.samples = append(tr.samples, route.PosAt(s))
		}
	}
	best := geom.NewNearest(pos)
	bestArc := 0.0
	for i, p := range tr.samples {
		if best.Closer(p) {
			bestArc = 5 * float64(i) // the sampling's s, exactly: whole meters
		}
	}
	// The upper bound follows bestArc: an improving sample extends the scan.
	for s := math.Max(0, bestArc-5); s <= math.Min(route.Length(), bestArc+5); s += 0.5 {
		if best.Closer(route.PosAt(s)) {
			bestArc = s
		}
	}
	return bestArc, best.Dist
}

// SuccessRate runs trials trials of the condition (cycling through its
// routes) and returns the success percentage in [0, 100].
func (ev *Evaluator) SuccessRate(policy Driver, cond Condition, trials int, seed uint64) float64 {
	routes := ev.Suite.Routes[cond]
	if len(routes) == 0 || trials <= 0 {
		return math.NaN()
	}
	success := 0
	for i := 0; i < trials; i++ {
		route := routes[i%len(routes)]
		if ev.RunTrial(policy, cond, route, seed+uint64(i)*7919) == OutcomeSuccess {
			success++
		}
	}
	return 100 * float64(success) / float64(trials)
}

// controller converts predicted waypoints into free-agent motion: steer
// toward a lookahead waypoint, match the speed implied by waypoint spacing.
type controller struct {
	bev bev.Config
	// stoppedFor accumulates full-stop time for deadlock-breaking creep.
	stoppedFor float64
	// wps is step's decoded-waypoint buffer, reused across control periods.
	wps []geom.Point
}

func newController(b bev.Config) *controller {
	return &controller{bev: b}
}

// Control limits for the testing autopilot.
const (
	maxYawRate  = 1.5  // rad/s
	maxSpeed    = 15.0 // m/s
	ctrlAccel   = 3.0  // m/s²
	ctrlBrake   = 6.0  // m/s²
	minLookAt   = 5.0  // meters: skip waypoints closer than this for steering
	speedPerGap = 1 / world.FrameHorizonStep
)

// step applies one control period.
func (c *controller) step(agent *world.FreeAgent, pred []float64, bevT []uint8, dt float64) {
	// Decode waypoints into ego-frame meters.
	wps := c.wps[:0]
	for i := 0; i+1 < len(pred); i += 2 {
		wps = append(wps, c.bev.DenormalizeWaypoint(pred[i], pred[i+1]))
	}
	c.wps = wps
	if len(wps) == 0 {
		return
	}
	// Pure-pursuit steering: aim at the first waypoint beyond a
	// speed-scaled lookahead and turn along the circle through it.
	lookahead := geom.Clamp(1.2*agent.V, minLookAt, 16)
	target := wps[len(wps)-1]
	for _, wp := range wps {
		if wp.Norm() >= lookahead {
			target = wp
			break
		}
	}
	var yawRate float64
	if dist := target.Norm(); dist > 0.3 {
		curvature := 2 * target.Y / (dist * dist)
		// A floor on the speed keeps the agent able to steer out from a
		// near-standstill.
		yawRate = geom.Clamp(math.Max(agent.V, 2.5)*curvature, -maxYawRate, maxYawRate)
		agent.Heading = geom.WrapAngle(agent.Heading + yawRate*dt)
	}

	// Speed from first-waypoint spacing: collapsed waypoints mean "stop".
	desiredSpeed := geom.Clamp(wps[0].Norm()*speedPerGap, 0, maxSpeed)
	// Lateral-acceleration limit: the platform caps speed in sharp
	// maneuvers (a_lat = v·ω), exactly like a real vehicle's stability
	// control.
	if math.Abs(yawRate) > 0.15 {
		desiredSpeed = math.Min(desiredSpeed, maxLatAccel/math.Abs(yawRate))
	}
	// Emergency-brake safety layer: MSE-trained imitation regresses toward
	// mean speeds and brakes too softly for full stops, so the vehicle
	// platform adds automatic emergency braking — standard equipment on any
	// modern car. It reads only the BEV the model itself sees, and applies
	// identically under every training protocol, so comparisons are fair.
	if gap := c.nearestObstacleAhead(bevT); gap < aebRange {
		// Physics-based envelope: the speed from which a comfortable
		// braking rate can still stop before the obstacle.
		allowed := math.Sqrt(2 * aebDecel * math.Max(0, gap-aebStopGap))
		desiredSpeed = math.Min(desiredSpeed, allowed)
		// Deadlock breaking, mirroring the routed vehicles: after a long
		// full stop with nothing touching, creep so head-on standoffs
		// resolve instead of timing out.
		if desiredSpeed <= 0 && agent.V < 0.1 {
			c.stoppedFor += dt
			if c.stoppedFor > aebPatience && gap > 3.0 {
				desiredSpeed = aebCreep
			}
		} else {
			c.stoppedFor = 0
		}
	}
	if desiredSpeed > agent.V {
		agent.V = math.Min(desiredSpeed, agent.V+ctrlAccel*dt)
	} else {
		agent.V = math.Max(desiredSpeed, agent.V-ctrlBrake*dt)
	}
	dir := geom.Pt(math.Cos(agent.Heading), math.Sin(agent.Heading))
	agent.Pos = agent.Pos.Add(dir.Scale(agent.V * dt))
}

// AEB parameters: the safety layer begins limiting speed when an obstacle
// cell appears within aebRange ahead in the ego lane corridor and enforces a
// full stop at aebStopGap.
const (
	aebRange    = 26.0
	aebStopGap  = 4.0
	aebDecel    = 4.5
	aebHalfLat  = 2.2
	aebPatience = 6.0
	aebCreep    = 1.2
	// maxLatAccel caps v·ω during maneuvers (m/s²).
	maxLatAccel = 4.0
)

// nearestObstacleAhead scans the BEV's vehicle and pedestrian channels for
// the closest marked cell in the forward ego-lane corridor.
func (c *controller) nearestObstacleAhead(bevT []uint8) float64 {
	cfg := c.bev
	plane := cfg.Height * cfg.Width
	cell := cfg.CellSize()
	halfWidth := float64(cfg.Width) / 2 * cell
	best := math.Inf(1)
	for _, ch := range []int{bev.ChannelVehicles, bev.ChannelPedestrians} {
		for row := 0; row < cfg.Height; row++ {
			fwd := cfg.Range - (float64(row)+0.5)*cell
			if fwd >= best || fwd > aebRange {
				continue
			}
			for col := 0; col < cfg.Width; col++ {
				if bevT[ch*plane+row*cfg.Width+col] == 0 {
					continue
				}
				lat := -halfWidth + (float64(col)+0.5)*cell
				if math.Abs(lat) <= aebHalfLat {
					best = fwd
					break
				}
			}
		}
	}
	return best
}

// ProbeSet builds a held-out evaluation set for loss curves: frames
// collected by fresh expert vehicles on the map, disjoint from any training
// run that uses a different seed.
func ProbeSet(m *world.Map, bevCfg bev.Config, numWaypoints, frames int, seed uint64) ([]dataset.Weighted, error) {
	rng := simrand.New(seed)
	w, err := world.New(m, world.SpawnConfig{Experts: 4, BackgroundCars: 12, Pedestrians: 40}, rng)
	if err != nil {
		return nil, fmt.Errorf("eval: building probe world: %w", err)
	}
	ras := bev.NewRasterizer(bevCfg, m)
	perVehicle := (frames + len(w.Experts) - 1) / len(w.Experts)
	sets := world.CollectDataset(w, ras, numWaypoints, perVehicle, 0.5)
	var out []dataset.Weighted
	for _, ds := range sets {
		out = append(out, ds.Items()...)
	}
	if len(out) > frames {
		out = out[:frames]
	}
	return out, nil
}
