package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"lbchat/internal/core"
	"lbchat/internal/eval"
	"lbchat/internal/metrics"
)

// sharedEnv is built once: env construction collects data and records a
// trace, which dominates test time.
var sharedEnv *Env

func getEnv(t *testing.T) *Env {
	t.Helper()
	if sharedEnv == nil {
		env, err := BuildEnv(TestScale())
		if err != nil {
			t.Fatalf("BuildEnv: %v", err)
		}
		sharedEnv = env
	}
	return sharedEnv
}

func TestBuildEnvShape(t *testing.T) {
	env := getEnv(t)
	s := env.Scale
	if env.Trace.NumVehicles() != s.Vehicles {
		t.Errorf("trace vehicles = %d", env.Trace.NumVehicles())
	}
	if len(env.Probe) == 0 || len(env.Probe) > s.ProbeFrames {
		t.Errorf("probe size = %d", len(env.Probe))
	}
	if len(env.Suite.Routes[eval.CondStraight]) == 0 {
		t.Error("no straight routes")
	}
	if len(env.RSUPositions()) == 0 {
		t.Error("no RSU positions")
	}
	fresh := env.FreshDatasets()
	if len(fresh) != s.Vehicles {
		t.Fatalf("fresh datasets = %d", len(fresh))
	}
	// Clones must be independent: growing one run's dataset must not leak.
	before := env.datasets[0].Len()
	fresh[0].Absorb(fresh[1], 1)
	if env.datasets[0].Len() != before {
		t.Error("FreshDatasets aliases master copies")
	}
}

func TestUnknownProtocolRejected(t *testing.T) {
	env := getEnv(t)
	_, err := env.RunProtocol("Nonsense", true, nil)
	if err == nil {
		t.Fatal("unknown protocol accepted")
	}
	// Every name the -protocol help lists resolves, and the rejection names
	// them all.
	for _, name := range Protocols {
		if _, perr := env.newProtocol(name); perr != nil {
			t.Errorf("listed protocol %s does not resolve: %v", name, perr)
		}
		if !strings.Contains(err.Error(), string(name)) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
}

func TestRunProtocolLbChat(t *testing.T) {
	env := getEnv(t)
	run, _ := goldenRun(t, ProtoLbChat, true)
	if run.Name != ProtoLbChat || !run.Lossless {
		t.Errorf("run metadata: %+v", run)
	}
	if len(run.Fleet) != env.Scale.Vehicles {
		t.Errorf("fleet size = %d", len(run.Fleet))
	}
	first := run.Curve.Points[0].Value
	if run.Curve.Final() >= first {
		t.Errorf("LbChat did not learn: %v -> %v", first, run.Curve.Final())
	}
}

func TestRunProtocolConfigOverride(t *testing.T) {
	env := getEnv(t)
	run, err := env.RunProtocol(ProtoLbChat, true, func(c *core.Config) { c.CoresetSize = 10 })
	if err != nil {
		t.Fatal(err)
	}
	if run.Curve.Final() >= run.Curve.Points[0].Value {
		t.Error("coreset-size override run did not learn")
	}
}

func TestEveryProtocolRuns(t *testing.T) {
	for _, name := range goldenProtocols {
		// Shared with TestGoldenEventStreams, which pins what each run emits.
		run, _ := goldenRun(t, name, false)
		if run.Curve.Final() >= run.Curve.Points[0].Value {
			t.Errorf("%s did not learn under loss", name)
		}
	}
}

func TestEvalFleetAndTable(t *testing.T) {
	env := getEnv(t)
	run, _ := goldenRun(t, ProtoLbChat, true)
	rates := env.EvalFleet(run.Fleet)
	for _, cond := range eval.Conditions {
		r, ok := rates[cond]
		if !ok {
			t.Fatalf("missing condition %v", cond)
		}
		if math.IsNaN(r) || r < 0 || r > 100 {
			t.Errorf("%v rate = %v", cond, r)
		}
	}
	tbl := oracleSuccessTable("T", []ProtocolName{ProtoLbChat},
		map[ProtocolName]map[eval.Condition]float64{ProtoLbChat: rates})
	out := tbl.Render()
	if !strings.Contains(out, "Straight") || !strings.Contains(out, "LbChat") {
		t.Errorf("table render:\n%s", out)
	}
}

func TestConvergenceRatio(t *testing.T) {
	var a, b metrics.Curve
	a.Add(0, 1)
	a.Add(100, 0.1)
	b.Add(0, 1)
	b.Add(100, 0.5)
	b.Add(200, 0.1)
	if got := ConvergenceRatio(&a, &b); math.Abs(got-2) > 1e-9 {
		t.Errorf("ratio = %v, want 2", got)
	}
	var c metrics.Curve
	c.Add(50, 1) // never converges
	if got := ConvergenceRatio(&a, &c); !math.IsNaN(got) {
		t.Errorf("unreachable ratio = %v", got)
	}
}

// entryResults memoises catalogue entries run through Run on the shared
// environment, so the parity oracle reads the same runs the study tests
// trained.
var entryResults = map[string]*Result{}

func entryResult(t *testing.T, name string) *Result {
	t.Helper()
	if res, ok := entryResults[name]; ok {
		return res
	}
	res, err := Run(context.Background(), Spec{Experiment: name, Env: getEnv(t)})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	entryResults[name] = res
	return res
}

func TestExtensionStudiesRun(t *testing.T) {
	tbl := entryResult(t, "routeshare").Table
	if math.IsNaN(tbl.Value("final probe loss (x1000)", "LbChat")) {
		t.Error("route-sharing table missing LbChat loss")
	}
	tbl = entryResult(t, "adaptive").Table
	if math.IsNaN(tbl.Value("final probe loss (x1000)", "adaptive |C|")) {
		t.Error("adaptive table missing value")
	}
}

func TestCoresetMethodStudyRuns(t *testing.T) {
	tbl := entryResult(t, "methods").Table
	for _, col := range []string{"layered", "sensitivity", "clustering", "uniform"} {
		if math.IsNaN(tbl.Value("final probe loss (x1000)", col)) {
			t.Errorf("missing method column %q", col)
		}
	}
}

func TestHeterogeneityStudyRuns(t *testing.T) {
	tbl := entryResult(t, "hetero").Table
	if math.IsNaN(tbl.Value("final probe loss (x1000)", "5-31 Mbps")) {
		t.Error("heterogeneity table missing value")
	}
}

func TestScalePresets(t *testing.T) {
	for _, s := range []Scale{TestScale(), BenchScale(), FullScale()} {
		if s.Vehicles < 2 || s.CollectTicks <= 0 || s.TrainDuration <= 0 {
			t.Errorf("scale %q has degenerate parameters: %+v", s.Name, s)
		}
	}
	if FullScale().Vehicles != 32 {
		t.Errorf("full scale must match the paper's 32 vehicles")
	}
}

func TestRenderHelpers(t *testing.T) {
	run, _ := goldenRun(t, ProtoLbChat, true)
	x := &Experiment{Caption: "Rates", Arms: []Arm{{Label: "LbChat"}}}
	if _, curves := reportCurves(nil, x, []*ProtocolRun{run}); !strings.Contains(curves, "LbChat") {
		t.Error("curve render missing protocol name")
	}
	got := &ProtocolRun{Recv: metrics.ReceiveStats{Attempts: 8, Successes: 7}}
	if _, rates := reportReceiveRates(nil, x, []*ProtocolRun{got}); !strings.Contains(rates, "LbChat") || !strings.Contains(rates, "87.5") {
		t.Errorf("rate render:\n%s", rates)
	}
}

func TestCompressionSchemeStudyRuns(t *testing.T) {
	tbl := entryResult(t, "quant").Table
	if math.IsNaN(tbl.Value("final probe loss (x1000)", "quantization")) {
		t.Error("quantization column missing")
	}
}
