package eval_test

import (
	"math"
	"testing"

	"lbchat/internal/bev"
	"lbchat/internal/dataset"
	"lbchat/internal/eval"
	"lbchat/internal/world"
)

// recordingDriver passes the oracle's waypoints through and keeps a copy.
type recordingDriver struct {
	*oracleDriver
	preds [][]float64
}

func (d *recordingDriver) Predict(bevT []uint8, speed, navDist, redDist float64, cmd dataset.Command) []float64 {
	pred := d.oracleDriver.Predict(bevT, speed, navDist, redDist, cmd)
	d.preds = append(d.preds, pred)
	return pred
}

// replayDriver answers with recorded waypoints in order: a trial that
// replays a recording drives exactly the recorded trial, at no driver cost.
type replayDriver struct {
	preds [][]float64
	next  int
}

func (d *replayDriver) Predict([]uint8, float64, float64, float64, dataset.Command) []float64 {
	d.next++
	return d.preds[d.next-1]
}

// BenchmarkEvalTrial is a fixed amount of closed-loop evaluation — the loop
// behind drive-eval and `make bench-pprof`'s eval profile: one Navi (Normal)
// trial on each of the golden suite's four routes of the default map, per
// op. The driver replays the oracle's waypoints recorded before the timer
// starts, so every op runs the same control steps and what is timed is the
// evaluator and its world (rasterization, progress, world step), not a
// driver.
func BenchmarkEvalTrial(b *testing.B) {
	m, err := world.NewMap(world.DefaultConfig())
	if err != nil {
		b.Fatalf("NewMap: %v", err)
	}
	suite, err := eval.BuildSuite(m, eval.SuiteConfig{RoutesPerCondition: 4, Seed: 5})
	if err != nil {
		b.Fatalf("BuildSuite: %v", err)
	}
	ev := eval.NewEvaluator(suite)
	routes := suite.Routes[eval.CondNaviNormal]
	newAgent := func(route *world.Route) *world.FreeAgent {
		s0 := math.Min(12, route.Length()/4)
		return &world.FreeAgent{Pos: route.PosAt(s0), Heading: route.HeadingAt(s0)}
	}
	recorded := make([][][]float64, len(routes))
	steps := 0
	for ri, route := range routes {
		agent := newAgent(route)
		rec := &recordingDriver{oracleDriver: &oracleDriver{route: route, agent: agent, bev: bev.DefaultConfig(), speed: 7}}
		ev.RunTrialReport(rec, eval.CondNaviNormal, route, uint64(300+ri), agent)
		recorded[ri] = rec.preds
		steps += len(rec.preds)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ri, route := range routes {
			ev.RunTrialReport(&replayDriver{preds: recorded[ri]}, eval.CondNaviNormal, route, uint64(300+ri), newAgent(route))
		}
	}
	b.ReportMetric(float64(steps), "steps/op")
}
