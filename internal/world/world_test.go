package world

import (
	"math"
	"testing"

	"lbchat/internal/bev"
	"lbchat/internal/dataset"
	"lbchat/internal/geom"
	"lbchat/internal/simrand"
)

func testMap(t *testing.T) *Map {
	t.Helper()
	m, err := NewMap(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMapGeneration(t *testing.T) {
	m := testMap(t)
	if len(m.Nodes) != 30 { // 5×5 town grid + 5 rural nodes
		t.Errorf("node count = %d, want 30", len(m.Nodes))
	}
	// Every edge must have a reverse (all roads bidirectional).
	for _, e := range m.Edges {
		reversed := false
		for _, r := range m.Nodes[e.To].Out {
			reversed = reversed || m.EdgeByID(r).To == e.From
		}
		if !reversed {
			t.Fatalf("edge %d has no reverse", e.ID)
		}
	}
	w, h := m.Bounds()
	if w < 900 || h < 900 {
		t.Errorf("map extent %v×%v too small for ~1km² target", w, h)
	}
}

func TestMapValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.GridN = 1
	if _, err := NewMap(bad); err == nil {
		t.Error("1×1 grid accepted")
	}
	bad = DefaultConfig()
	bad.GridSpacing = 0
	if _, err := NewMap(bad); err == nil {
		t.Error("zero spacing accepted")
	}
}

func TestIsRoadOnAndOff(t *testing.T) {
	m := testMap(t)
	// Node positions sit on the road.
	for _, n := range m.Nodes[:5] {
		if !m.IsRoad(n.Pos) {
			t.Errorf("node position %v not on road", n.Pos)
		}
	}
	// Mid-block between two grid roads is open ground.
	if m.IsRoad(geom.Pt(125, 125)) {
		t.Error("block interior counted as road")
	}
	if m.IsRoad(geom.Pt(-500, -500)) {
		t.Error("far outside the map counted as road")
	}
}

func TestShortestPath(t *testing.T) {
	m := testMap(t)
	path, err := m.ShortestPath(0, 24)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != 0 || path[len(path)-1] != 24 {
		t.Errorf("path endpoints wrong: %v", path)
	}
	// Opposite grid corners: manhattan distance is 8 edges.
	if len(path) != 9 {
		t.Errorf("corner-to-corner path has %d nodes, want 9", len(path))
	}
	if _, err := m.ShortestPath(3, 3); err != nil {
		t.Errorf("self path: %v", err)
	}
}

func TestEdgeBetween(t *testing.T) {
	m := testMap(t)
	path, _ := m.ShortestPath(0, 24)
	if _, err := m.EdgeBetween(path[0], path[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EdgeBetween(0, 24); err == nil {
		t.Error("non-adjacent nodes reported an edge")
	}
}

func TestRouteGeometry(t *testing.T) {
	m := testMap(t)
	path, _ := m.ShortestPath(0, 24)
	r, err := NewRoute(m, path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Length() < 1000 {
		t.Errorf("corner-to-corner route only %v m", r.Length())
	}
	// The lane stays on the drivable surface everywhere.
	for s := 0.0; s < r.Length(); s += 3 {
		if !m.IsRoad(r.PosAt(s)) {
			t.Fatalf("route leaves the road at s=%v (%v)", s, r.PosAt(s))
		}
	}
}

func TestRouteRejectsBadPaths(t *testing.T) {
	m := testMap(t)
	if _, err := NewRoute(m, []NodeID{3}); err == nil {
		t.Error("single-node route accepted")
	}
	if _, err := NewRoute(m, []NodeID{0, 24}); err == nil {
		t.Error("non-adjacent route accepted")
	}
}

func TestRouteCommands(t *testing.T) {
	m := testMap(t)
	// An L-shaped path across the grid has exactly one turn.
	path, _ := m.ShortestPath(0, 24)
	r, _ := NewRoute(m, path)
	turns := r.NumTurns()
	if turns < 1 {
		t.Errorf("corner-to-corner route reports %d turns", turns)
	}
	// Commands appear in the lead window before a turning node and
	// revert to follow elsewhere.
	sawTurnCmd := false
	for s := 0.0; s < r.Length(); s += 2 {
		cmd := r.CommandAt(s)
		if cmd == dataset.CmdLeft || cmd == dataset.CmdRight {
			sawTurnCmd = true
		}
	}
	if !sawTurnCmd {
		t.Error("no turn command announced along a turning route")
	}
	if r.CommandAt(1) != dataset.CmdFollow {
		t.Error("command at route start should be follow")
	}
}

func TestNextInteriorNode(t *testing.T) {
	m := testMap(t)
	path, _ := m.ShortestPath(0, 2) // straight two-edge run through node 1
	r, _ := NewRoute(m, path)
	arc, ok := r.NextInteriorNode(0, r.Length())
	if !ok {
		t.Fatal("interior node not found")
	}
	if math.Abs(arc-r.Length()/2) > 20 {
		t.Errorf("interior node at arc %v of %v", arc, r.Length())
	}
	if id, ok := r.InteriorNodeAt(arc); !ok || id != 1 {
		t.Errorf("InteriorNodeAt = %v, %v", id, ok)
	}
	if _, ok := r.NextInteriorNode(r.Length()-1, 10); ok {
		t.Error("found interior node past the last one")
	}
}

func TestRandomWalkRouteLength(t *testing.T) {
	m := testMap(t)
	rng := simrand.New(4)
	r, err := RandomWalkRoute(m, 7, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if r.Length() < 500 {
		t.Errorf("walk length %v < 500", r.Length())
	}
}

func TestExtendRandomPreservesPrefix(t *testing.T) {
	m := testMap(t)
	rng := simrand.New(5)
	r, _ := RandomWalkRoute(m, 0, 300, rng)
	before := r.Length()
	posAt100 := r.PosAt(100)
	if err := r.ExtendRandom(m, 300, rng); err != nil {
		t.Fatal(err)
	}
	if r.Length() < before+250 {
		t.Errorf("extension too short: %v -> %v", before, r.Length())
	}
	if r.PosAt(100).Dist(posAt100) > 1e-6 {
		t.Error("extension changed the existing parameterization")
	}
}

func TestVehicleFollowsRoute(t *testing.T) {
	m := testMap(t)
	rng := simrand.New(6)
	w, err := New(m, SpawnConfig{Experts: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	v := w.Experts[0]
	start := v.S
	for i := 0; i < 100; i++ {
		w.Step(0.5)
	}
	if v.S <= start {
		t.Error("vehicle did not advance")
	}
	if v.V <= 0 {
		t.Error("vehicle has no speed on an empty road")
	}
	if !m.IsRoad(v.Pos()) {
		t.Errorf("vehicle off road at %v", v.Pos())
	}
}

func TestVehicleBrakesForLeader(t *testing.T) {
	m := testMap(t)
	rng := simrand.New(7)
	w, _ := New(m, SpawnConfig{}, rng)
	// Two vehicles on the same long route, follower close behind a
	// stopped leader.
	path, _ := m.ShortestPath(0, 4)
	route, _ := NewRoute(m, path)
	leader := NewVehicle(0, route, rng.Derive("l"))
	leader.S = 120
	follower := NewVehicle(1, route, rng.Derive("f"))
	follower.S = 105
	follower.V = 9
	w.Experts = append(w.Experts, leader, follower)
	for i := 0; i < 30; i++ {
		// Step only the follower so the leader stays put.
		follower.Step(w, 0.5)
	}
	if follower.S >= leader.S-2 {
		t.Errorf("follower rear-ended the leader: %.1f vs %.1f", follower.S, leader.S)
	}
}

func TestWorldSpawnPopulation(t *testing.T) {
	m := testMap(t)
	w, err := New(m, SpawnConfig{Experts: 3, BackgroundCars: 5, Pedestrians: 7}, simrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Experts) != 3 || len(w.Background) != 5 || len(w.Pedestrians) != 7 {
		t.Errorf("population = %d/%d/%d", len(w.Experts), len(w.Background), len(w.Pedestrians))
	}
	for _, bg := range w.Background {
		if !bg.Background {
			t.Error("background car not flagged")
		}
	}
}

// TestVehicleIDsDistinctPastThousandExperts pins the background numbering:
// with more than 1000 experts, background IDs must not collide with expert
// IDs — a shared ID drops each car out of the other's queries.
func TestVehicleIDsDistinctPastThousandExperts(t *testing.T) {
	w, err := New(testMap(t), SpawnConfig{Experts: 1001, BackgroundCars: 2}, simrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, v := range append(append([]*Vehicle(nil), w.Experts...), w.Background...) {
		if seen[v.ID] {
			t.Fatalf("vehicle ID %d is used twice", v.ID)
		}
		seen[v.ID] = true
	}
}

// sameBits reports whether a and b are the same float64 bit for bit, any
// two NaNs counting as the same (which NaN payload survives an operation on
// two NaNs depends on the compiler's operand order).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// samePoint reports whether a and b are equal under sameBits.
func samePoint(a, b geom.Point) bool { return sameBits(a.X, b.X) && sameBits(a.Y, b.Y) }

// checkPoseMemo fails unless v's memoised pose is its route's answer at S
// bit for bit.
func checkPoseMemo(t *testing.T, v *Vehicle, when string) {
	t.Helper()
	pos, heading := v.Route.PosAt(v.S), v.Route.HeadingAt(v.S)
	want := geom.Frame{Origin: pos, Heading: heading}
	got := v.Frame()
	if !samePoint(v.Pos(), pos) || !sameBits(v.Heading(), heading) ||
		!samePoint(got.Origin, pos) || !sameBits(got.Heading, heading) {
		t.Fatalf("%s car %d at S=%v: pose (%v, %v), frame %+v; route says (%v, %v)",
			when, v.ID, v.S, v.Pos(), v.Heading(), got, pos, heading)
	}
	// A NaN S makes the transform NaN, which == cannot compare; a probe
	// point's image under sameBits can.
	probe := pos.Add(geom.Pt(3, -7))
	if !samePoint(v.localFrame().ToLocal(probe), want.Local().ToLocal(probe)) ||
		!math.IsNaN(v.S) && v.localFrame() != want.Local() {
		t.Fatalf("%s car %d at S=%v: localFrame differs from Frame().Local()", when, v.ID, v.S)
	}
}

// TestVehiclePoseMatchesRoute holds the pose memo to its definition through
// every way S and the route change: Step, ExtendRandom's lane swap, an
// external teleport, and a NaN S, which never hits the memo.
func TestVehiclePoseMatchesRoute(t *testing.T) {
	w := seededWorld(t, SpawnConfig{Experts: 6, BackgroundCars: 50, Pedestrians: 250})
	cars := routedCars(w)
	lanes := make([]*geom.Polyline, len(cars))
	for i, v := range cars {
		lanes[i] = v.Route.lane
	}
	extended := 0
	for tick := 0; tick < 2000; tick++ {
		w.Step(0.5)
		if tick == 1000 {
			for _, v := range w.Background {
				v.Pos() // prime the memo at the old S
				v.S = math.Min(v.S+60, v.Route.Length())
			}
			w.InvalidateIndex()
		}
		for i, v := range cars {
			checkPoseMemo(t, v, "after step")
			if v.Route.lane != lanes[i] {
				extended++
				lanes[i] = v.Route.lane
			}
		}
	}
	if extended == 0 {
		t.Fatal("no route was extended: the lane-swap key went untested")
	}
	// A step moves S with the lane, so only a car stopped at the swap would
	// read a stale memo there — and an extension keeps the prefix's poses.
	// Replacing the route in place at an unchanged S, as ExtendRandom does,
	// must miss the memo even when every pose changes.
	v := cars[0]
	checkPoseMemo(t, v, "before the route swap")
	*v.Route = *cars[1].Route
	checkPoseMemo(t, v, "route replaced in place")
	s := v.S
	v.S = math.NaN()
	checkPoseMemo(t, v, "NaN S")
	checkPoseMemo(t, v, "NaN S again")
	v.S = s
	checkPoseMemo(t, v, "S restored")
}

func TestCollisionAt(t *testing.T) {
	m := testMap(t)
	w, _ := New(m, SpawnConfig{Experts: 1}, simrand.New(9))
	pos := w.Experts[0].Pos()
	if !w.CollisionAt(pos, -1) {
		t.Error("overlapping positions not a collision")
	}
	if w.CollisionAt(pos, w.Experts[0].ID) {
		t.Error("self-exclusion broken")
	}
	if w.CollisionAt(pos.Add(geom.Pt(50, 50)), -1) {
		t.Error("distant point reported a collision")
	}
}

func TestPedestrianStaysInBounds(t *testing.T) {
	m := testMap(t)
	rng := simrand.New(10)
	p := NewPedestrian(0, m, rng)
	w, _ := New(m, SpawnConfig{}, rng)
	w.Pedestrians = append(w.Pedestrians, p)
	mw, mh := m.Bounds()
	for i := 0; i < 2000; i++ {
		p.Step(w, 0.5)
		if p.Pos.X < -20 || p.Pos.Y < -20 || p.Pos.X > mw+40 || p.Pos.Y > mh+40 {
			t.Fatalf("pedestrian escaped the map: %v", p.Pos)
		}
	}
}

// TestPedestrianRoadCarry checks the on-road answer a step carries: it is
// IsRoad of the position it was taken at, and a Pos written from outside is
// asked afresh rather than answered from the carry.
func TestPedestrianRoadCarry(t *testing.T) {
	w := seededWorld(t, SpawnConfig{Experts: 2, BackgroundCars: 6, Pedestrians: 40})
	carried, onRoad := 0, 0
	for i := 0; i < 600; i++ {
		w.Step(0.5)
		for _, p := range w.Pedestrians {
			if p.onRoadAt != p.Pos {
				continue
			}
			carried++
			if p.onRoad {
				onRoad++
			}
			if p.onRoad != w.Map.IsRoad(p.Pos) {
				t.Fatalf("pedestrian %d at %v carries onRoad %v", p.ID, p.Pos, p.onRoad)
			}
		}
	}
	if carried == 0 || onRoad == 0 {
		t.Fatalf("%d carried answers, %d on the road: the check is vacuous", carried, onRoad)
	}
	p := w.Pedestrians[0]
	p.isRoad(w.Map)
	for _, pos := range []geom.Point{w.Map.NodePos(0), geom.Pt(-500, -500)} {
		p.Pos = pos
		if got, want := p.isRoad(w.Map), w.Map.IsRoad(pos); got != want {
			t.Errorf("after Pos = %v, isRoad = %v, want %v", pos, got, want)
		}
	}
}

func TestCollectFrameShape(t *testing.T) {
	m := testMap(t)
	w, _ := New(m, SpawnConfig{Experts: 1, BackgroundCars: 2, Pedestrians: 3}, simrand.New(11))
	ras := newTestRasterizer(m)
	s := CollectFrame(w, w.Experts[0], ras, 5)
	if len(s.BEV) != ras.Config().Size() {
		t.Errorf("BEV size = %d", len(s.BEV))
	}
	if len(s.Targets) != 10 {
		t.Errorf("targets size = %d", len(s.Targets))
	}
	if s.Command < dataset.CmdFollow || s.Command > dataset.CmdStraight {
		t.Errorf("invalid command %v", s.Command)
	}
	if s.Speed < 0 || s.Speed > 1 || s.NavDist < 0 || s.NavDist > 1 || s.RedDist < 0 || s.RedDist > 1 {
		t.Errorf("scalar inputs out of range: %+v", s)
	}
}

func TestCollectDatasetCounts(t *testing.T) {
	m := testMap(t)
	w, _ := New(m, SpawnConfig{Experts: 2, BackgroundCars: 1, Pedestrians: 2}, simrand.New(12))
	ras := newTestRasterizer(m)
	sets := CollectDataset(w, ras, 5, 40, 0.5)
	if len(sets) != 2 {
		t.Fatalf("datasets = %d", len(sets))
	}
	for i, d := range sets {
		if d.Len() != 40 {
			t.Errorf("dataset %d has %d frames", i, d.Len())
		}
		if d.TotalWeight() != 40 {
			t.Errorf("dataset %d weight %v", i, d.TotalWeight())
		}
	}
}

func TestSignalsPhasesAlternate(t *testing.T) {
	m := testMap(t)
	// Node 6 is an interior town intersection (4 roads).
	id := NodeID(6)
	if !m.signalized(id) {
		t.Fatalf("node %d not signalized", id)
	}
	sawNS, sawEW := false, false
	for tt := 0.0; tt < SignalPeriod*1.5; tt += 1 {
		switch m.SignalPhaseAt(id, tt) {
		case PhaseNorthSouth:
			sawNS = true
		case PhaseEastWest:
			sawEW = true
		}
	}
	if !sawNS || !sawEW {
		t.Error("signal never alternated")
	}
	// Exactly one of the two perpendicular approaches faces red.
	for tt := 0.0; tt < SignalPeriod; tt += 3 {
		ns := m.SignalRed(id, math.Pi/2, tt)
		ew := m.SignalRed(id, 0, tt)
		if ns == ew {
			t.Fatalf("t=%v: NS red=%v and EW red=%v must differ", tt, ns, ew)
		}
	}
}

func TestSignalsOnlyAtIntersections(t *testing.T) {
	m := testMap(t)
	// Corner node 0 has only 2 roads: never signalized.
	if m.SignalRed(0, 0, 5) {
		t.Error("2-way node shows a red light")
	}
}

func TestRedDistInput(t *testing.T) {
	m := testMap(t)
	path, _ := m.ShortestPath(0, 2)
	r, _ := NewRoute(m, path)
	nodeArc, _ := r.NextInteriorNode(0, r.Length())
	// Find a time when the approach faces red.
	var redT float64 = -1
	for tt := 0.0; tt < SignalPeriod; tt += 1 {
		if RedDistInput(m, r, nodeArc-20, tt) < 1 {
			redT = tt
			break
		}
	}
	if redT < 0 {
		t.Skip("approach never red within one period (node not signalized)")
	}
	near := RedDistInput(m, r, nodeArc-12, redT)
	far := RedDistInput(m, r, nodeArc-25, redT)
	if near >= far {
		t.Errorf("red-distance input not decreasing on approach: near %v, far %v", near, far)
	}
}

func TestVehicleStopsAtRedLight(t *testing.T) {
	m := testMap(t)
	path, _ := m.ShortestPath(6, 8) // straight through interior node 7
	route, _ := NewRoute(m, path)
	nodeArc, ok := route.NextInteriorNode(0, route.Length())
	if !ok {
		t.Fatal("no interior node")
	}
	rng := simrand.New(13)
	w, _ := New(m, SpawnConfig{}, rng)
	v := NewVehicle(0, route, rng)
	v.S = nodeArc - 30
	w.Experts = append(w.Experts, v)
	// Find the red phase for this approach.
	node, _ := route.InteriorNodeAt(nodeArc)
	for !m.SignalRed(node, route.HeadingAt(v.S), w.Time) {
		w.Time += 1
	}
	for i := 0; i < 10; i++ {
		v.Step(w, 0.5) // without advancing w.Time: light stays red
	}
	if v.S > nodeArc-5 {
		t.Errorf("vehicle ran the red light: S=%v, node at %v", v.S, nodeArc)
	}
}

func newTestRasterizer(m *Map) *bev.Rasterizer {
	return bev.NewRasterizer(bev.DefaultConfig(), m)
}

func TestTurnSlowdownInCommandWindow(t *testing.T) {
	m := testMap(t)
	path, _ := m.ShortestPath(0, 24) // has turns
	route, _ := NewRoute(m, path)
	// Find a turn command window.
	var turnArc float64 = -1
	for s := 0.0; s < route.Length(); s += 2 {
		c := route.CommandAt(s)
		if c == dataset.CmdLeft || c == dataset.CmdRight {
			turnArc = s
			break
		}
	}
	if turnArc < 0 {
		t.Skip("no turn window found")
	}
	rng := simrand.New(20)
	w, _ := New(m, SpawnConfig{}, rng)
	v := NewVehicle(0, route, rng)
	v.S = turnArc
	slowed := v.desiredSpeed(w)
	v.S = 2 // straight, far from any turn
	if cruise := v.desiredSpeed(w); slowed >= cruise {
		t.Errorf("turn-window speed %v not below cruise %v", slowed, cruise)
	}
}

func TestRedDistInputFarFromNode(t *testing.T) {
	m := testMap(t)
	path, _ := m.ShortestPath(0, 4)
	route, _ := NewRoute(m, path)
	// Right at the start there is no signal within the approach window.
	if got := RedDistInput(m, route, 0, 3); got != 1 {
		t.Errorf("far-from-signal input = %v, want 1", got)
	}
}

func TestFreeAgentVisibleToTraffic(t *testing.T) {
	m := testMap(t)
	rng := simrand.New(22)
	w, _ := New(m, SpawnConfig{Experts: 1}, rng)
	v := w.Experts[0]
	// Park a free agent directly ahead of the expert: it must slow down.
	frame := v.Frame()
	w.FreeAgents = append(w.FreeAgents, &FreeAgent{Pos: frame.World().ToWorld(geom.Pt(10, 0))})
	if gap := w.nearestVehicleAhead(v); gap > 11 {
		t.Errorf("free agent ahead not detected: gap %v", gap)
	}
	if v.desiredSpeed(w) >= v.Route.SpeedLimitAt(v.S) {
		t.Error("expert does not brake for a free agent")
	}
}

func TestVehiclePositionsSeenByExcludesObserver(t *testing.T) {
	// Regression: an agent must never appear in its own BEV — when it did,
	// the emergency brake froze every trial at spawn.
	m := testMap(t)
	w, _ := New(m, SpawnConfig{Experts: 1}, simrand.New(23))
	agent := &FreeAgent{Pos: geom.Pt(100, 100)}
	other := &FreeAgent{Pos: geom.Pt(200, 200)}
	w.FreeAgents = append(w.FreeAgents, agent, other)
	seen := w.VehiclePositionsSeenBy(-1, agent)
	for _, p := range seen {
		if p == agent.Pos {
			t.Fatal("observer included in its own view")
		}
	}
	foundOther := false
	for _, p := range seen {
		if p == other.Pos {
			foundOther = true
		}
	}
	if !foundOther {
		t.Error("other free agent missing from the view")
	}
	// AllVehiclePositions keeps everyone.
	if got := len(w.AllVehiclePositions(-1)); got != 3 {
		t.Errorf("AllVehiclePositions = %d entries, want 3", got)
	}
}
