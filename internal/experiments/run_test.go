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
// leaks into the other tests (sharedEnv is reused across the package). The
// copy gets a run memo of its own: a memo hit streams nothing, so a sink
// must not see runs another test's sink already received.
func envWithSink(t *testing.T, sink telemetry.Sink) *Env {
	t.Helper()
	e := *getEnv(t)
	e.Telemetry = sink
	e.memo = map[string]*ProtocolRun{}
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
		res, err := Run(context.Background(), env, Spec{Experiment: "fig3"})
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
// not an error. The env's memo starts empty: a run the shared env already
// holds would be returned whole, with no tick to cancel.
func TestRunCancellationReturnsPartialResult(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, envWithSink(t, nil), Spec{Experiment: ExpProtocol, Protocol: ProtoLbChat})
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

// defaultLbChat runs the lossless LbChat arm, which several catalogue
// entries share, through Run on env.
func defaultLbChat(ctx context.Context, t *testing.T, env *Env) *ProtocolRun {
	t.Helper()
	res, err := Run(ctx, env, Spec{Protocol: ProtoLbChat, Lossless: true})
	if err != nil {
		t.Fatal(err)
	}
	return res.Runs[0]
}

// TestRunMemoNeverReturnsCanceledRun: a canceled run is not remembered, so
// the next Train of its arm trains it in full — the very run RunProtocol
// trains — and that completed run is the one the memo then returns.
func TestRunMemoNeverReturnsCanceledRun(t *testing.T) {
	env := envWithSink(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if run := defaultLbChat(ctx, t, env); !run.Canceled {
		t.Fatal("pre-canceled run completed")
	}
	run := defaultLbChat(context.Background(), t, env)
	if run.Canceled {
		t.Fatal("the memo returned the canceled run")
	}
	golden, _ := goldenRun(t, ProtoLbChat, true)
	sameRun(t, "memoised vs fresh", run, golden)
	if again := defaultLbChat(context.Background(), t, env); again != run {
		t.Error("a shared arm trained twice on one env")
	}
}

// TestRunMemoKeepsUserSinkStreams: a run trained without a user sink is not
// returned to an env that has one — that env's sink receives the run's full
// event stream, the golden one — while a run the sink already received is
// returned without streaming it again.
func TestRunMemoKeepsUserSinkStreams(t *testing.T) {
	env := envWithSink(t, nil)
	golden, hash := goldenRun(t, ProtoLbChat, true)
	env.memo[env.runKey(Arm{Protocol: ProtoLbChat, Lossless: true})] = golden
	if defaultLbChat(context.Background(), t, env) != golden {
		t.Fatal("the memo missed on the env it was filled for")
	}
	mem := telemetry.NewMemorySink()
	env.Telemetry = mem
	run := defaultLbChat(context.Background(), t, env)
	if run == golden {
		t.Fatal("an env with a user sink got a run trained for an env without one")
	}
	if got := runHash(t, mem, run); got != hash {
		t.Errorf("user sink stream hashes to %s, want the golden %s", got, hash)
	}
	again := telemetry.NewMemorySink()
	env.Telemetry = again
	if defaultLbChat(context.Background(), t, env) != run || again.Len() != 0 {
		t.Errorf("memo hit streamed %d events or trained again", again.Len())
	}
}

// TestRunCanceledTableExperiment: canceling a table experiment must skip
// evaluation (nil table) while still returning the partial runs, and Run
// leaves the caller's env as it found it.
func TestRunCanceledTableExperiment(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env := envWithSink(t, telemetry.NewMemorySink())
	before := *env
	res, err := Run(ctx, env, Spec{Experiment: "tab7"})
	if env.Telemetry != before.Telemetry || env.Trace != before.Trace ||
		!reflect.DeepEqual(env.Cfg, before.Cfg) || !reflect.DeepEqual(env.Scale, before.Scale) {
		t.Error("Run changed the env's fields")
	}
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
	res, err := Run(context.Background(), envWithSink(t, sink), Spec{
		Experiment: ExpProtocol, Protocol: ProtoLbChat, Lossless: true,
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

// specFieldReasons accounts for every Spec field by the non-test caller
// that sets it. What a run depends on beyond the arm it selects is the
// Env's, so a field for it belongs there, not here.
var specFieldReasons = map[string]string{
	"Experiment": "lbchat-bench -exp",
	"Protocol":   "lbchat-sim and lbchat-eval -protocol",
	"Lossless":   "lbchat-sim and lbchat-eval -wireless-loss",
}

// TestSpecFieldsAccountedFor holds Spec to specFieldReasons: a new field
// fails until its setter is named there, and a removed one until its entry
// goes.
func TestSpecFieldsAccountedFor(t *testing.T) {
	typ := reflect.TypeOf(Spec{})
	fields := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		fields[name] = true
		if specFieldReasons[name] == "" {
			t.Errorf("Spec.%s has no entry in specFieldReasons: name the non-test caller that sets it", name)
		}
	}
	for name := range specFieldReasons {
		if !fields[name] {
			t.Errorf("specFieldReasons names Spec.%s, which is not a field", name)
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	_, err := Run(context.Background(), getEnv(t), Spec{Experiment: "tab99"})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, x := range Catalogue {
		if !strings.Contains(err.Error(), x.Name) {
			t.Errorf("error %q does not name %s", err, x.Name)
		}
	}
}
