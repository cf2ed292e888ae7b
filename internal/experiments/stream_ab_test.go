package experiments

import (
	"bytes"
	"os"
	"sync"
	"testing"

	"lbchat/internal/core"
	"lbchat/internal/telemetry"
	"lbchat/internal/trace"
)

// TestMain closes the package's shared envs so the streamed env's temporary
// LBTC spill is removed instead of leaking past the test process.
func TestMain(m *testing.M) {
	code := m.Run()
	if streamedEnv != nil {
		streamedEnv.Close()
	}
	if sharedEnv != nil {
		sharedEnv.Close()
	}
	os.Exit(code)
}

// streamedEnv builds an env identical to the shared test env except that its
// engine runs are driven by a bounded sliding-window trace spilled to a temp
// LBTC file instead of the resident trace. Built once: env construction
// collects data and records a trace, which dominates test time.
var streamedEnv *Env

func getStreamedEnv(t *testing.T) *Env {
	t.Helper()
	if streamedEnv == nil {
		streamedEnv = buildEnvWithBudget(t, TestScale(), 0)
	}
	return streamedEnv
}

// buildEnvWithBudget builds an env with residentTraceBudget set to budget
// for the duration of BuildEnv: the way tests choose the side of the
// residency decision that production reads off the trace's size.
func buildEnvWithBudget(t *testing.T, scale Scale, budget int64) *Env {
	t.Helper()
	defer func(old int64) { residentTraceBudget = old }(residentTraceBudget)
	residentTraceBudget = budget
	env, err := BuildEnv(scale)
	if err != nil {
		t.Fatalf("BuildEnv(budget %d): %v", budget, err)
	}
	return env
}

// TestStreamABDeterminism is the streaming-trace acceptance criterion: a full
// LbChat run driven by the sliding-window source must produce a
// byte-identical telemetry event stream and bit-identical experiment metrics
// (loss curve, receive stats, final parameters) as the resident-trace run, at
// every worker count. Chunk loads/evicts/prefetches flow through the
// telemetry.Observer side channel, never the event stream, so the streams
// must match even though one run pages chunks and the other holds the whole
// trace.
func TestStreamABDeterminism(t *testing.T) {
	runWith := func(env *Env, workers int) (*ProtocolRun, [][]byte) {
		mem := telemetry.NewMemorySink()
		e := *env
		e.Telemetry = mem
		run, err := e.RunProtocol(ProtoLbChat, false, func(c *core.Config) { c.Workers = workers })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return run, encodedLines(t, mem)
	}

	refRun, refStream := runWith(getEnv(t), 1)
	if len(refStream) == 0 {
		t.Fatal("resident reference run emitted no events")
	}
	streamed := getStreamedEnv(t)
	for _, workers := range []int{1, 4, 8} {
		run, stream := runWith(streamed, workers)
		if len(stream) != len(refStream) {
			t.Fatalf("streamed workers=%d: %d events, resident reference %d",
				workers, len(stream), len(refStream))
		}
		for i := range stream {
			if !bytes.Equal(stream[i], refStream[i]) {
				t.Fatalf("streamed workers=%d: event %d differs:\nstreamed: %s\nresident: %s",
					workers, i, stream[i], refStream[i])
			}
		}
		sameRun(t, "streamed vs resident", run, refRun)
	}
}

// TestStreamTraceSummaryCounters checks the side channel end to end: a
// streamed run's telemetry summary must count chunk loads (and report them in
// CommTable), while a resident run's summary must stay at zero so resident
// reports render exactly as before the streaming layer existed.
func TestStreamTraceSummaryCounters(t *testing.T) {
	run, err := getStreamedEnv(t).RunProtocol(ProtoLbChat, true, nil)
	if err != nil {
		t.Fatalf("streamed run: %v", err)
	}
	loads := run.Comm.Reg.Counter(telemetry.MTraceLoads)
	if loads == 0 {
		t.Fatal("streamed run counted no chunk loads")
	}
	tbl := CommTable([]*ProtocolRun{run})
	if got := tbl.Value("trace chunk loads", "LbChat"); got != float64(loads) {
		t.Errorf("trace chunk loads row = %v, want %d", got, loads)
	}
	resident, _ := goldenRun(t, ProtoLbChat, true)
	if n := resident.Comm.Reg.Counter(telemetry.MTraceLoads); n != 0 {
		t.Errorf("resident run counted %d chunk loads, want 0", n)
	}
}

// TestTraceResidencyBySize pins the one residency decision: the same scale
// built with the budget at the trace's decoded size holds it resident, one
// byte under records it to a spill and windows it — same shape either way —
// the spill goes with Close, and two runs windowing the shared chunk source
// at once each reproduce the resident run byte for byte.
func TestTraceResidencyBySize(t *testing.T) {
	scale := TestScale()
	scale.TrainDuration = 120 // three runs below; the decision is made at build time
	size := int64(scale.TraceTicks) * int64(scale.Vehicles) * 16

	resident := buildEnvWithBudget(t, scale, size)
	defer resident.Close()
	if !retainsFirstTick(resident.Trace) || resident.chunks != nil || resident.spill != "" {
		t.Fatalf("at the budget: chunks %v, spill %q; want a resident trace and no source",
			resident.chunks, resident.spill)
	}
	windowed := buildEnvWithBudget(t, scale, size-1)
	defer windowed.Close()
	if retainsFirstTick(windowed.Trace) || windowed.chunks == nil {
		t.Fatalf("over the budget: chunks %v; want a window over a chunk source that retains nothing before its first Advance",
			windowed.chunks)
	}
	if _, err := os.Stat(windowed.spill); err != nil {
		t.Fatalf("over the budget: no spill file: %v", err)
	}
	if r, w := resident.Trace, windowed.Trace; r.NumTicks() != w.NumTicks() || r.NumVehicles() != w.NumVehicles() {
		t.Errorf("resident trace is %d ticks × %d vehicles, windowed %d × %d",
			r.NumTicks(), r.NumVehicles(), w.NumTicks(), w.NumVehicles())
	}

	stream := func(env *Env) []byte {
		mem := telemetry.NewMemorySink()
		e := *env
		e.Telemetry = mem
		if _, err := e.RunProtocol(ProtoLbChat, false, nil); err != nil {
			t.Error(err)
			return nil
		}
		return bytes.Join(encodedLines(t, mem), []byte{'\n'})
	}
	var wg sync.WaitGroup
	concurrent := make([][]byte, 2)
	for i := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = stream(windowed)
		}()
	}
	want := stream(resident)
	wg.Wait()
	if len(want) == 0 {
		t.Fatal("resident run emitted no events")
	}
	for i, got := range concurrent {
		if !bytes.Equal(got, want) {
			t.Errorf("concurrent windowed run %d differs from the resident run (%d vs %d bytes)", i, len(got), len(want))
		}
	}

	spill := windowed.spill
	if err := windowed.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(spill); !os.IsNotExist(err) {
		t.Errorf("Close left the spill %s behind (stat: %v)", spill, err)
	}
}

// retainsFirstTick reports whether tr serves tick 0 without an Advance: a
// resident trace does, a windowed one panics with *trace.WindowViolation.
func retainsFirstTick(tr *trace.Trace) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, violation := r.(*trace.WindowViolation); !violation {
				panic(r)
			}
			ok = false
		}
	}()
	tr.Row(0)
	return true
}
