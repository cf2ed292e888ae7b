package baselines

import (
	"testing"

	"lbchat/internal/bev"
	"lbchat/internal/core"
	"lbchat/internal/geom"
	"lbchat/internal/radio"
	"lbchat/internal/simrand"
	"lbchat/internal/trace"
	"lbchat/internal/world"
)

// tinyEnv builds a small engine plus the map's intersection positions.
func tinyEnv(t *testing.T, lossless bool) (*core.Engine, []geom.Point) {
	t.Helper()
	m, err := world.NewMap(world.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	w, err := world.New(m, world.SpawnConfig{Experts: 3, BackgroundCars: 6, Pedestrians: 15}, simrand.New(31))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.CoresetSize = 30
	cfg.LayeringSample = 96
	cfg.EvalSubset = 32
	ras := bev.NewRasterizer(bev.DefaultConfig(), m)
	datasets := world.CollectDataset(w, ras, cfg.Model.NumWaypoints, 200, 0.5)
	tr := trace.Record(w, 1000, 0.5)
	probe := datasets[0].Items()[:32]
	eng, err := core.NewEngine(cfg, tr, datasets, radio.NewModel(lossless), probe)
	if err != nil {
		t.Fatal(err)
	}
	var rsus []geom.Point
	for _, n := range m.Nodes {
		if len(n.Out) >= 3 {
			rsus = append(rsus, n.Pos)
		}
	}
	return eng, rsus
}

func runAndCheckLearning(t *testing.T, eng *core.Engine, p core.Protocol) {
	t.Helper()
	if err := eng.Run(p, 400); err != nil {
		t.Fatalf("%s run: %v", p.Name(), err)
	}
	first := eng.LossCurve.Points[0].Value
	final := eng.LossCurve.Final()
	t.Logf("%s: loss %.4f -> %.4f, recv %+v", p.Name(), first, final, eng.FleetReceiveStats())
	if final >= first {
		t.Errorf("%s did not learn: %v -> %v", p.Name(), first, final)
	}
}

func TestProxSkipRuns(t *testing.T) {
	eng, _ := tinyEnv(t, true)
	runAndCheckLearning(t, eng, NewProxSkip())
}

func TestProxSkipLossyDropsTransfers(t *testing.T) {
	eng, _ := tinyEnv(t, false)
	runAndCheckLearning(t, eng, NewProxSkip())
	stats := eng.FleetReceiveStats()
	if stats.Attempts == 0 {
		t.Fatal("ProxSkip never attempted a sync")
	}
	if stats.Successes == stats.Attempts {
		t.Error("lossy regime lost no transfers at all")
	}
}

func TestProxSkipSynchronizesModels(t *testing.T) {
	eng, _ := tinyEnv(t, true)
	if err := eng.Run(NewProxSkip(), 400); err != nil {
		t.Fatal(err)
	}
	// After lossless syncs, vehicle models should be much closer to each
	// other than independent training would leave them.
	a := eng.Vehicles[0].Policy.Flat()
	b := eng.Vehicles[1].Policy.Flat()
	var dist float64
	for i := range a {
		dist += (a[i] - b[i]) * (a[i] - b[i])
	}
	if dist == 0 {
		t.Log("models exactly equal (sync at final tick)")
	}
	// Compare against a no-communication engine: distance must be smaller.
	eng2, _ := tinyEnv(t, true)
	if err := eng2.Run(noComm{}, 400); err != nil {
		t.Fatal(err)
	}
	a2 := eng2.Vehicles[0].Policy.Flat()
	b2 := eng2.Vehicles[1].Policy.Flat()
	var dist2 float64
	for i := range a2 {
		dist2 += (a2[i] - b2[i]) * (a2[i] - b2[i])
	}
	if dist >= dist2 {
		t.Errorf("ProxSkip models no closer than isolated training: %v vs %v", dist, dist2)
	}
}

// noComm is a Protocol that never communicates (isolated local training).
type noComm struct{}

func (noComm) Name() string                 { return "NoComm" }
func (noComm) Setup(*core.Engine) error     { return nil }
func (noComm) OnTick(*core.Engine, float64) {}

func TestRSULRuns(t *testing.T) {
	eng, rsus := tinyEnv(t, true)
	runAndCheckLearning(t, eng, NewRSUL(rsus))
}

func TestRSULRequiresPositions(t *testing.T) {
	eng, _ := tinyEnv(t, true)
	if err := eng.Run(NewRSUL(nil), 100); err == nil {
		t.Error("RSU-L without positions accepted")
	}
}

func TestDFLDDSRuns(t *testing.T) {
	eng, _ := tinyEnv(t, true)
	runAndCheckLearning(t, eng, NewDFLDDS())
}

func TestDFLDDSRoundBoundariesOnly(t *testing.T) {
	eng, _ := tinyEnv(t, true)
	p := NewDFLDDS()
	if err := p.Setup(eng); err != nil {
		t.Fatal(err)
	}
	// Before the first round boundary nothing happens.
	p.OnTick(eng, 1)
	if eng.FleetReceiveStats().Attempts != 0 {
		t.Error("DFL-DDS exchanged before the round boundary")
	}
}

func TestDPRuns(t *testing.T) {
	eng, _ := tinyEnv(t, true)
	runAndCheckLearning(t, eng, NewDP())
}

func TestAverageFlat(t *testing.T) {
	got := averageFlat([][]float64{{1, 3}, {3, 5}})
	if got[0] != 2 || got[1] != 4 {
		t.Errorf("averageFlat = %v", got)
	}
	if averageFlat(nil) != nil {
		t.Error("empty average should be nil")
	}
}
