package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"lbchat/internal/telemetry"
)

// envWithSink copies the shared env so a test-local telemetry sink never
// leaks into the other tests (sharedEnv is reused across the package).
func envWithSink(t *testing.T, sink telemetry.Sink) *Env {
	t.Helper()
	e := *getEnv(t)
	e.Telemetry = sink
	return &e
}

// encodedLines returns the sink's events as JSONL lines, the form the A/B
// tests compare byte for byte. It reports a failed encode with t.Error, so
// it is safe off the test goroutine.
func encodedLines(t *testing.T, mem *telemetry.MemorySink) [][]byte {
	t.Helper()
	lines := make([][]byte, 0, mem.Len())
	for _, ev := range mem.Events() {
		line, err := telemetry.Encode(ev)
		if err != nil {
			t.Errorf("encoding %s: %v", ev.Kind(), err)
		}
		lines = append(lines, line)
	}
	return lines
}

// sameRun asserts two protocol runs agree bit for bit: loss curve, receive
// stats, and every vehicle's final parameter vector.
func sameRun(t *testing.T, label string, a, b *ProtocolRun) {
	t.Helper()
	if len(a.Curve.Points) != len(b.Curve.Points) {
		t.Fatalf("%s: curve lengths %d vs %d", label, len(a.Curve.Points), len(b.Curve.Points))
	}
	for i := range a.Curve.Points {
		if a.Curve.Points[i] != b.Curve.Points[i] {
			t.Fatalf("%s: curve point %d: %+v vs %+v", label, i, a.Curve.Points[i], b.Curve.Points[i])
		}
	}
	if a.Recv != b.Recv {
		t.Fatalf("%s: receive stats %+v vs %+v", label, a.Recv, b.Recv)
	}
	if len(a.Fleet) != len(b.Fleet) {
		t.Fatalf("%s: fleet sizes %d vs %d", label, len(a.Fleet), len(b.Fleet))
	}
	for v := range a.Fleet {
		pa, pb := a.Fleet[v].Flat(), b.Fleet[v].Flat()
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s: vehicle %d param %d: %v vs %v", label, v, i, pa[i], pb[i])
			}
		}
	}
}

// TestTelemetryDoesNotPerturbRun is the acceptance criterion: attaching a
// full event-stream sink must leave the run's loss curve, receive stats,
// and final parameters bit-identical to a plain run. The sinked side is the
// memoised golden run, whose hash TestGoldenEventStreams checks against a
// non-empty stream.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	plain, err := getEnv(t).RunProtocol(ProtoLbChat, false, nil)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	sinked, _ := goldenRun(t, ProtoLbChat, false)
	sameRun(t, "telemetry on vs off", plain, sinked)
}

// TestEventStreamDeterministicAcrossWorkers runs the concurrent Fig. 3
// harness (two protocols in parallel) at workers=1 and workers=8 and
// requires the drained event streams to be identical element for element.
func TestEventStreamDeterministicAcrossWorkers(t *testing.T) {
	runAt := func(workers int) ([]telemetry.Event, []*ProtocolRun) {
		mem := telemetry.NewMemorySink()
		env := envWithSink(t, mem)
		env.Scale.Workers = workers
		res, err := Run(context.Background(), Spec{Experiment: "fig3", Env: env})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return mem.Events(), res.Runs
	}
	ev1, runs1 := runAt(1)
	ev8, runs8 := runAt(8)
	if len(ev1) == 0 {
		t.Fatal("no events recorded")
	}
	if !reflect.DeepEqual(ev1, ev8) {
		if len(ev1) != len(ev8) {
			t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev8))
		}
		for i := range ev1 {
			if !reflect.DeepEqual(ev1[i], ev8[i]) {
				t.Fatalf("event %d differs: %#v vs %#v", i, ev1[i], ev8[i])
			}
		}
	}
	for i := range runs1 {
		sameRun(t, string(runs1[i].Name), runs1[i], runs8[i])
	}
}

// TestRunCancellationReturnsPartialResult: a pre-canceled context must stop
// at the first engine tick and surface a partial Result with Canceled set —
// not an error.
func TestRunCancellationReturnsPartialResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, Spec{Experiment: ExpProtocol, Protocol: ProtoLbChat, Env: getEnv(t)})
	if err != nil {
		t.Fatalf("canceled run returned error: %v", err)
	}
	if !res.Canceled {
		t.Fatal("Result.Canceled = false for canceled context")
	}
	run := res.Runs[0]
	if !run.Canceled {
		t.Fatal("run.Canceled = false")
	}
	if run.Comm == nil {
		t.Fatal("canceled run dropped its telemetry summary")
	}
	full, _ := goldenRun(t, ProtoLbChat, true)
	if len(run.Curve.Points) >= len(full.Curve.Points) {
		t.Errorf("canceled run recorded %d curve points, full run %d — expected an early stop",
			len(run.Curve.Points), len(full.Curve.Points))
	}
}

// TestRunCanceledTableExperiment: canceling a table experiment must skip
// evaluation (nil table) while still returning the partial runs.
func TestRunCanceledTableExperiment(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, Spec{Experiment: "tab7", Env: getEnv(t)})
	if err != nil {
		t.Fatalf("canceled table run returned error: %v", err)
	}
	if !res.Canceled {
		t.Fatal("Result.Canceled = false")
	}
	if res.Table != nil {
		t.Error("canceled experiment still produced a table")
	}
	if len(res.Runs) == 0 {
		t.Error("canceled experiment dropped its partial runs")
	}
}

// TestRunJSONLEndToEnd streams a run into the JSONL sink, reads the stream
// back, and cross-checks it against the run's aggregate summary.
func TestRunJSONLEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	sink := telemetry.NewJSONL(&buf)
	res, err := Run(context.Background(), Spec{
		Experiment: ExpProtocol, Protocol: ProtoLbChat, Lossless: true,
		Env: envWithSink(t, sink),
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatalf("closing sink: %v", err)
	}
	events, err := telemetry.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	if events[0].Kind() != telemetry.KindRunStarted {
		t.Errorf("first event kind = %s, want %s", events[0].Kind(), telemetry.KindRunStarted)
	}
	if last := events[len(events)-1]; last.Kind() != telemetry.KindRunFinished {
		t.Errorf("last event kind = %s, want %s", last.Kind(), telemetry.KindRunFinished)
	}
	counts := map[string]int64{}
	for _, ev := range events {
		counts[ev.Kind()]++
	}
	initiated, completed, aborted := res.Runs[0].Comm.Chats()
	if counts[telemetry.KindChatInitiated] != initiated {
		t.Errorf("stream has %d chat_initiated, summary says %d", counts[telemetry.KindChatInitiated], initiated)
	}
	if counts[telemetry.KindChatCompleted] != completed {
		t.Errorf("stream has %d chat_completed, summary says %d", counts[telemetry.KindChatCompleted], completed)
	}
	if counts[telemetry.KindChatAborted] != aborted {
		t.Errorf("stream has %d chat_aborted, summary says %d", counts[telemetry.KindChatAborted], aborted)
	}
}

// TestCommTableFromRun checks the Fig. 6-style report against the summary
// it renders.
func TestCommTableFromRun(t *testing.T) {
	run, _ := goldenRun(t, ProtoLbChat, true)
	tbl := CommTable([]*ProtocolRun{run, nil})
	_, done, _ := run.Comm.Chats()
	if got := tbl.Value("chats completed", "LbChat"); got != float64(done) {
		t.Errorf("chats completed = %v, want %d", got, done)
	}
	const mb = 1.0 / (1 << 20)
	if got := tbl.Value("total MB requested", "LbChat"); got != float64(run.Comm.TotalBytesRequested())*mb {
		t.Errorf("total MB requested = %v", got)
	}
	if got := tbl.Value("final probe loss (x1000)", "LbChat"); got != 1000*run.Curve.Final() {
		t.Errorf("final loss row = %v, want %v", got, 1000*run.Curve.Final())
	}
}

func TestScaleByName(t *testing.T) {
	for name, vehicles := range map[string]int{
		"test": TestScale().Vehicles, "bench": BenchScale().Vehicles,
		"full": FullScale().Vehicles,
	} {
		s, err := ScaleByName(name)
		if err != nil {
			t.Fatalf("ScaleByName(%q): %v", name, err)
		}
		if s.Vehicles != vehicles {
			t.Errorf("ScaleByName(%q).Vehicles = %d, want %d", name, s.Vehicles, vehicles)
		}
	}
	for _, name := range []string{"galactic", ""} {
		if _, err := ScaleByName(name); err == nil {
			t.Errorf("unknown scale %q accepted", name)
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	_, err := Run(context.Background(), Spec{Experiment: "tab99", Env: getEnv(t)})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, x := range Catalogue {
		if !strings.Contains(err.Error(), x.Name) {
			t.Errorf("error %q does not name %s", err, x.Name)
		}
	}
}
