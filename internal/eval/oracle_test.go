package eval_test

import (
	"math"
	"testing"

	"lbchat/internal/bev"
	"lbchat/internal/dataset"
	"lbchat/internal/eval"
	"lbchat/internal/geom"
	"lbchat/internal/world"
)

// oracleDriver emits ground-truth waypoints computed from the live route
// and agent state, bypassing the learned model. It validates the
// closed-loop controller and judge independently of model quality.
type oracleDriver struct {
	route *world.Route
	agent *world.FreeAgent
	bev   bev.Config
	speed float64
}

func (o *oracleDriver) Predict(_ []uint8, _, _, _ float64, _ dataset.Command) []float64 {
	// Project the agent onto the route, then emit waypoints spaced at the
	// oracle speed, exactly as expert data collection does.
	arc := 0.0
	best := 1e18
	for s := 0.0; s <= o.route.Length(); s += 2 {
		if d := o.route.PosAt(s).Dist(o.agent.Pos); d < best {
			best, arc = d, s
		}
	}
	frame := o.agent.Frame()
	out := make([]float64, 0, 10)
	for i := 1; i <= 5; i++ {
		wp := o.route.PosAt(arc + o.speed*world.FrameHorizonStep*float64(i))
		local := frame.ToLocal(wp)
		x, y := o.bev.NormalizeWaypoint(local)
		out = append(out, x, y)
	}
	return out
}

// TestOracleDriverSucceeds drives ground-truth waypoints through the
// controller on every condition's first route with no traffic: the
// controller and judge must let a perfect driver through.
func TestOracleDriverSucceeds(t *testing.T) {
	m, err := world.NewMap(world.DefaultConfig())
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	suite, err := eval.BuildSuite(m, eval.SuiteConfig{RoutesPerCondition: 4, Seed: 5})
	if err != nil {
		t.Fatalf("BuildSuite: %v", err)
	}
	ev := eval.NewEvaluator(suite)
	for _, cond := range []eval.Condition{eval.CondStraight, eval.CondOneTurn, eval.CondNaviEmpty} {
		for ri, route := range suite.Routes[cond] {
			oracle := &oracleDriver{route: route, bev: bev.DefaultConfig(), speed: 7}
			// RunTrial needs the agent pointer before it exists; replicate
			// its wiring through a tiny shim: the evaluator exposes the
			// agent via the driver's first Predict call. Instead, run the
			// trial with a fresh agent bound through the suite helper.
			outcome := runOracleTrial(ev, oracle, cond, route, uint64(100+ri))
			if outcome != eval.OutcomeSuccess {
				t.Errorf("%v route %d: oracle got %v, want success (len %.0f m, turns %d)",
					cond, ri, outcome, route.Length(), route.NumTurns())
			}
		}
	}
}

// TestTrialProgressMatchesOracle drives the oracle through every Navi
// (Dense) route of the golden suite and, on every control step, holds the
// trial's progress — the scan over route samples it took once — to
// RouteProgress, which re-samples the route on every call, bit for bit.
func TestTrialProgressMatchesOracle(t *testing.T) {
	m, err := world.NewMap(world.DefaultConfig())
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	suite, err := eval.BuildSuite(m, eval.SuiteConfig{RoutesPerCondition: 4, Seed: 5})
	if err != nil {
		t.Fatalf("BuildSuite: %v", err)
	}
	ev := eval.NewEvaluator(suite)
	for ri, route := range suite.Routes[eval.CondNaviDense] {
		s0 := math.Min(12, route.Length()/4)
		agent := &world.FreeAgent{Pos: route.PosAt(s0), Heading: route.HeadingAt(s0)}
		oracle := &oracleDriver{route: route, agent: agent, bev: bev.DefaultConfig(), speed: 7}
		tr, err := ev.NewTrial(oracle, eval.CondNaviDense, route, uint64(300+ri), agent)
		if err != nil {
			t.Fatal(err)
		}
		steps, arc := 0, 0.0
		for at := 0.0; at < route.Length()/2.5+60; at += ev.DT {
			wantArc, wantLat := eval.RouteProgress(route, agent.Pos)
			_, gotArc, lat := tr.ControlStep()
			if math.Float64bits(gotArc) != math.Float64bits(wantArc) || math.Float64bits(lat) != math.Float64bits(wantLat) {
				t.Fatalf("route %d step %d: progress (%v, %v), RouteProgress (%v, %v)", ri, steps, gotArc, lat, wantArc, wantLat)
			}
			steps, arc = steps+1, gotArc
			if arc > route.Length()-18 && lat < 6 {
				break
			}
		}
		t.Logf("route %d: %d control steps, %.0f of %.0f m", ri, steps, arc, route.Length())
	}
}

// runOracleTrial wires the oracle to the trial's live agent: it creates the
// agent the same way RunTrial does, hands it to the oracle, then delegates.
func runOracleTrial(ev *eval.Evaluator, oracle *oracleDriver, cond eval.Condition, route *world.Route, seed uint64) eval.Outcome {
	agent := &world.FreeAgent{Pos: route.PosAt(0), Heading: route.HeadingAt(0)}
	oracle.agent = agent
	return ev.RunTrialWithAgent(oracle, cond, route, seed, agent)
}

var _ = geom.Point{}
