package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"lbchat/internal/core"
	"lbchat/internal/faults"
	"lbchat/internal/telemetry"
)

// TestFaultSweepGridShape reads the grid back from the faultsweep entry's
// arms: 5 fault settings × {LbChat, LbChat-NoResume}, row-major, every arm
// in the lossy regime.
func TestFaultSweepGridShape(t *testing.T) {
	x, err := Lookup("faultsweep")
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Arms) != 10 {
		t.Fatalf("faultsweep has %d arms, want 5 cells x 2 protocols", len(x.Arms))
	}
	var cells []faults.Config
	for i, a := range x.Arms {
		if want := []ProtocolName{ProtoLbChat, ProtoNoResume}[i%2]; a.Protocol != want || a.Lossless {
			t.Errorf("arm %d is %s lossless=%v, want lossy %s", i, a.Protocol, a.Lossless, want)
		}
		if a.Label != x.Arms[i-i%2].Label {
			t.Errorf("arm %d label %q differs from its cell's %q", i, a.Label, x.Arms[i-i%2].Label)
		}
		var cfg core.Config
		a.Config(&cfg)
		if i%2 == 0 {
			cells = append(cells, cfg.Faults)
		} else if cfg.Faults != cells[i/2] {
			t.Errorf("cell %q: the two protocols run under different faults", a.Label)
		}
	}
	if cells[0].Enabled() {
		t.Error("first cell must be the fault-free baseline")
	}
	for i, cfg := range cells[1:] {
		if !cfg.Enabled() {
			t.Errorf("cell %d (%s) has faults disabled", i+1, x.Arms[2*(i+1)].Label)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("cell %q invalid: %v", x.Arms[2*(i+1)].Label, err)
		}
	}
	// The burst-only cells must really have churn off.
	if cells[1].ChurnPerHour != 0 || cells[2].ChurnPerHour != 0 {
		t.Error("burst-only cells still churn")
	}
	if cells[3].ChurnPerHour == 0 || cells[4].ChurnPerHour == 0 {
		t.Error("churn cells have churn disabled")
	}
}

// TestNoResumeProtocolResolves: the FaultSweep comparison arm must be a
// first-class protocol name.
func TestNoResumeProtocolResolves(t *testing.T) {
	env := getEnv(t)
	run, err := env.RunProtocol(ProtoNoResume, true, nil)
	if err != nil {
		t.Fatalf("ProtoNoResume: %v", err)
	}
	if run.Curve.Final() >= run.Curve.Points[0].Value {
		t.Error("no-resumption arm did not learn")
	}
}

// TestFaultedRunDeterministicAcrossWorkers is the faults acceptance
// criterion: with the heavy profile active (bursts, churn, truncation,
// corruption all firing), a run's full telemetry event stream and results
// must be bit-identical at workers=1 and workers=8.
func TestFaultedRunDeterministicAcrossWorkers(t *testing.T) {
	runAt := func(workers int) ([]telemetry.Event, *ProtocolRun) {
		mem := telemetry.NewMemorySink()
		env := envWithSink(t, mem)
		env.Scale.Workers = workers
		res, err := Run(context.Background(), Spec{
			Experiment: ExpProtocol, Protocol: ProtoLbChat,
			Faults: faults.Heavy(), Env: env,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return mem.Events(), res.Runs[0]
	}
	ev1, run1 := runAt(1)
	ev8, run8 := runAt(8)
	injected := 0
	for _, ev := range ev1 {
		if ev.Kind() == telemetry.KindFaultInjected {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("heavy profile injected nothing; determinism check is vacuous")
	}
	if len(ev1) != len(ev8) {
		t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev8))
	}
	for i := range ev1 {
		if !reflect.DeepEqual(ev1[i], ev8[i]) {
			t.Fatalf("event %d differs: %#v vs %#v", i, ev1[i], ev8[i])
		}
	}
	sameRun(t, "faulted workers 1 vs 8", run1, run8)
}

// TestSpecFaultsReachesSummary: a faulted Spec must surface its injections
// in the run's telemetry summary, and CommTable must then grow the
// resilience rows (which stay absent for fault-free runs).
func TestSpecFaultsReachesSummary(t *testing.T) {
	res, err := Run(context.Background(), Spec{
		Experiment: ExpProtocol, Protocol: ProtoLbChat,
		Faults: faults.Heavy(), Env: envWithSink(t, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	run := res.Runs[0]
	if run.Comm.Reg.Counter(telemetry.MFaultsInjected) == 0 {
		t.Fatal("faulted run's summary counted no injections")
	}
	tbl := CommTable(res.Runs)
	if got := tbl.Value("faults injected", "LbChat"); got <= 0 {
		t.Errorf("CommTable faults-injected row = %v", got)
	}

	clean, _ := goldenRun(t, ProtoLbChat, true)
	cleanTbl := CommTable([]*ProtocolRun{clean}).Render()
	for _, row := range []string{"faults injected", "chats resumed", "partial salvages"} {
		if strings.Contains(cleanTbl, row) {
			t.Errorf("fault-free report grew a %q row:\n%s", row, cleanTbl)
		}
	}
}
