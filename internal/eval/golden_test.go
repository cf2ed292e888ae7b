package eval_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"testing"

	"lbchat/internal/bev"
	"lbchat/internal/dataset"
	"lbchat/internal/eval"
	"lbchat/internal/world"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_eval.json from this tree's output")

const goldenEvalPath = "testdata/golden_eval.json"

// hashingDriver is the scripted oracle driver with a tap: every control
// step folds the BEV the evaluator rasterized, the agent's route projection
// and the scalar inputs derived from it into h before answering.
type hashingDriver struct {
	*oracleDriver
	h hash.Hash
}

func hashFloats(h hash.Hash, vals ...float64) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

func (d *hashingDriver) Predict(bevT []uint8, speed, navDist, redDist float64, cmd dataset.Command) []float64 {
	d.h.Write(bevT)
	arc, lateral := eval.RouteProgress(d.route, d.agent.Pos)
	hashFloats(d.h, arc, lateral, speed, navDist, redDist, float64(cmd))
	return d.oracleDriver.Predict(bevT, speed, navDist, redDist, cmd)
}

// TestGoldenEvalTrials pins the closed-loop evaluation across commits: the
// scripted oracle driver runs Navi (Normal) and Navi (Dense) trials through
// RunTrialReport, and the hash of every control step's BEV bytes, route
// projection and model inputs plus the final TrialReport must match the
// committed goldens. It covers what the world goldens do not: a free agent
// among traffic, the evaluator's perceive–act–judge loop, and route progress.
// Re-baseline a deliberate change with `go test ./internal/eval -run Golden
// -update`.
func TestGoldenEvalTrials(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("goldens are recorded on amd64; fused multiply-add changes float bits elsewhere")
	}
	m, err := world.NewMap(world.DefaultConfig())
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	suite, err := eval.BuildSuite(m, eval.SuiteConfig{RoutesPerCondition: 4, Seed: 5})
	if err != nil {
		t.Fatalf("BuildSuite: %v", err)
	}
	ev := eval.NewEvaluator(suite)

	// One success and one collision per tier: with the oracle at 7 m/s
	// these routes end in success (1), a same-way rear-end (3) and an
	// oncoming hit after a long standoff (2).
	trials := []struct {
		cond  eval.Condition
		route int
	}{
		{eval.CondNaviNormal, 1}, {eval.CondNaviNormal, 3},
		{eval.CondNaviDense, 1}, {eval.CondNaviDense, 2},
	}
	got := map[string]string{}
	for _, tr := range trials {
		route := suite.Routes[tr.cond][tr.route]
		s0 := math.Min(12, route.Length()/4)
		agent := &world.FreeAgent{Pos: route.PosAt(s0), Heading: route.HeadingAt(s0)}
		drv := &hashingDriver{
			oracleDriver: &oracleDriver{route: route, agent: agent, bev: bev.DefaultConfig(), speed: 7},
			h:            sha256.New(),
		}
		rep := ev.RunTrialReport(drv, tr.cond, route, uint64(300+tr.route), agent)
		hashFloats(drv.h, float64(rep.Outcome), rep.Time, rep.Arc, rep.RouteLength, rep.AgentSpeed)
		drv.h.Write([]byte(rep.HitKind))
		key := fmt.Sprintf("%v/route%d", tr.cond, tr.route)
		got[key] = hex.EncodeToString(drv.h.Sum(nil))
		t.Logf("%s: %+v", key, rep)
	}

	if *update {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenEvalPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenEvalPath)
	if err != nil {
		t.Fatalf("reading goldens (record them with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("decoding %s: %v", goldenEvalPath, err)
	}
	for key, sum := range got {
		if want[key] != sum {
			t.Errorf("%s hash = %s, golden %s", key, sum, want[key])
		}
	}
}
