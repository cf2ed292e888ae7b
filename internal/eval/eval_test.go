package eval

import (
	"math"
	"testing"

	"lbchat/internal/dataset"
	"lbchat/internal/geom"
	"lbchat/internal/simrand"
	"lbchat/internal/world"
)

func testSuite(t *testing.T) *Suite {
	t.Helper()
	m, err := world.NewMap(world.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := BuildSuite(m, SuiteConfig{RoutesPerCondition: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConditionsOrderAndNames(t *testing.T) {
	if len(Conditions) != 5 {
		t.Fatalf("conditions = %d", len(Conditions))
	}
	if Conditions[0].String() != "Straight" || Conditions[4].String() != "Navi. (Dense)" {
		t.Errorf("condition labels wrong: %v ... %v", Conditions[0], Conditions[4])
	}
}

func TestBuildSuiteRouteShapes(t *testing.T) {
	s := testSuite(t)
	for _, r := range s.Routes[CondStraight] {
		if r.NumTurns() != 0 {
			t.Errorf("straight route has %d turns", r.NumTurns())
		}
		if r.Length() < 200 || r.Length() > 500 {
			t.Errorf("straight route length %v", r.Length())
		}
	}
	for _, r := range s.Routes[CondOneTurn] {
		if r.NumTurns() != 1 {
			t.Errorf("one-turn route has %d turns", r.NumTurns())
		}
	}
	for _, r := range s.Routes[CondNaviEmpty] {
		if r.NumTurns() < 2 {
			t.Errorf("navigation route has only %d turns", r.NumTurns())
		}
	}
}

func TestNaviTiersShareRoutes(t *testing.T) {
	s := testSuite(t)
	// The paper evaluates "the same full navigation routes but with
	// traffic".
	for i, r := range s.Routes[CondNaviEmpty] {
		if s.Routes[CondNaviNormal][i] != r || s.Routes[CondNaviDense][i] != r {
			t.Fatal("navigation tiers use different routes")
		}
	}
}

func TestBuildSuiteRejectsBadConfig(t *testing.T) {
	m, _ := world.NewMap(world.DefaultConfig())
	if _, err := BuildSuite(m, SuiteConfig{RoutesPerCondition: 0}); err == nil {
		t.Error("zero quota accepted")
	}
}

func TestTrafficScaling(t *testing.T) {
	normal := world.SpawnConfig{BackgroundCars: 50, Pedestrians: 250}
	if got := trafficFor(CondStraight, normal); got.BackgroundCars != 0 || got.Pedestrians != 0 {
		t.Error("straight tier should be traffic-free")
	}
	if got := trafficFor(CondNaviNormal, normal); got.BackgroundCars != 50 {
		t.Errorf("normal tier cars = %d", got.BackgroundCars)
	}
	dense := trafficFor(CondNaviDense, normal)
	if dense.BackgroundCars != 60 || dense.Pedestrians != 300 {
		t.Errorf("dense tier = %d cars / %d peds, want 1.2×", dense.BackgroundCars, dense.Pedestrians)
	}
}

func TestOutcomeStrings(t *testing.T) {
	for _, o := range []Outcome{OutcomeSuccess, OutcomeCollision, OutcomeOffRoad, OutcomeTimeout} {
		if o.String() == "" {
			t.Errorf("outcome %d has no name", o)
		}
	}
}

// stoppedDriver predicts collapsed waypoints (full stop) forever.
type stoppedDriver struct{}

func (stoppedDriver) Predict([]uint8, float64, float64, float64, dataset.Command) []float64 {
	return []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
}

func TestStoppedDriverTimesOut(t *testing.T) {
	s := testSuite(t)
	ev := NewEvaluator(s)
	route := s.Routes[CondStraight][0]
	if got := ev.RunTrial(stoppedDriver{}, CondStraight, route, 77); got != OutcomeTimeout {
		t.Errorf("stopped driver outcome = %v, want timeout", got)
	}
}

func TestTrialDeterministic(t *testing.T) {
	s := testSuite(t)
	ev := NewEvaluator(s)
	route := s.Routes[CondNaviNormal][0]
	a := ev.RunTrial(stoppedDriver{}, CondNaviNormal, route, 7)
	b := ev.RunTrial(stoppedDriver{}, CondNaviNormal, route, 7)
	if a != b {
		t.Errorf("same seed gave %v then %v", a, b)
	}
}

func TestTrialReportFields(t *testing.T) {
	s := testSuite(t)
	ev := NewEvaluator(s)
	route := s.Routes[CondStraight][0]
	agent := &world.FreeAgent{Pos: route.PosAt(12), Heading: route.HeadingAt(12)}
	rep := ev.RunTrialReport(stoppedDriver{}, CondStraight, route, 5, agent)
	if rep.Outcome != OutcomeTimeout {
		t.Fatalf("outcome = %v", rep.Outcome)
	}
	if rep.RouteLength != route.Length() {
		t.Errorf("route length = %v", rep.RouteLength)
	}
	if rep.Time <= 0 {
		t.Errorf("time = %v", rep.Time)
	}
	if rep.HitKind != "" {
		t.Errorf("timeout with hit kind %q", rep.HitKind)
	}
}

// unscreenedRouteProgress is routeProgress as it was before the
// squared-distance screen — a Hypot per sample — kept as the oracle the
// screened scan must reproduce bit for bit, including the refinement loop
// whose upper bound follows the improving arc.
func unscreenedRouteProgress(route *world.Route, pos geom.Point) (arc, lateral float64) {
	best := math.Inf(1)
	bestArc := 0.0
	for s := 0.0; s <= route.Length(); s += 5 {
		if d := route.PosAt(s).Dist(pos); d < best {
			best, bestArc = d, s
		}
	}
	for s := math.Max(0, bestArc-5); s <= math.Min(route.Length(), bestArc+5); s += 0.5 {
		if d := route.PosAt(s).Dist(pos); d < best {
			best, bestArc = d, s
		}
	}
	return bestArc, best
}

func TestRouteProgressMatchesUnscreenedScan(t *testing.T) {
	s := testSuite(t)
	rng := simrand.New(3)
	for _, cond := range []Condition{CondStraight, CondOneTurn, CondNaviEmpty} {
		for _, route := range s.Routes[cond] {
			for q := 0; q < 300; q++ {
				// On the lane, beside it, and well off the route.
				pos := route.PosAt(rng.Uniform(-10, route.Length()+10))
				switch q % 3 {
				case 1:
					pos = pos.Add(geom.Pt(rng.Uniform(-6, 6), rng.Uniform(-6, 6)))
				case 2:
					pos = pos.Add(geom.Pt(rng.Uniform(-300, 300), rng.Uniform(-300, 300)))
				}
				gotArc, gotLat := routeProgress(route, pos)
				wantArc, wantLat := unscreenedRouteProgress(route, pos)
				if math.Float64bits(gotArc) != math.Float64bits(wantArc) || math.Float64bits(gotLat) != math.Float64bits(wantLat) {
					t.Fatalf("%v: routeProgress(%v) = (%v, %v), unscreened scan (%v, %v)", cond, pos, gotArc, gotLat, wantArc, wantLat)
				}
			}
		}
	}
}

// fixedDriver answers every Predict with the same preallocated waypoints: a
// steady cruise straight ahead.
type fixedDriver struct{ wps []float64 }

func (d fixedDriver) Predict([]uint8, float64, float64, float64, dataset.Command) []float64 {
	return d.wps
}

// TestControlStepAllocations pins the per-step garbage of a closed-loop
// trial in dense traffic: the BEV tensor, which a dataset may retain, is the
// one allocation of a control period — the culled entity lists, the decoded
// waypoints and the world step reuse their buffers. The measured window
// ends before any background car can run its route low (cars spawn in the
// first half of a ≥ 600 m route), so no route extension falls into it.
func TestControlStepAllocations(t *testing.T) {
	s := testSuite(t)
	ev := NewEvaluator(s)
	route := s.Routes[CondNaviDense][1]
	agent := &world.FreeAgent{Pos: route.PosAt(12), Heading: route.HeadingAt(12)}
	drv := fixedDriver{wps: []float64{0.13, 0, 0.26, 0, 0.39, 0, 0.52, 0, 0.65, 0}}
	tr, err := ev.newTrial(drv, CondNaviDense, route, 301, agent)
	if err != nil {
		t.Fatal(err)
	}
	for warm := 0; warm < 5; warm++ { // index build, buffer growth
		tr.controlStep()
	}
	if got := testing.AllocsPerRun(40, func() { tr.controlStep() }); got > 1 {
		t.Errorf("one control step allocates %v objects, want only the BEV tensor", got)
	}
}
