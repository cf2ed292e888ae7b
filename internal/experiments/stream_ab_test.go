package experiments

import (
	"bytes"
	"net/http/httptest"
	"os"
	"testing"

	"lbchat/internal/core"
	"lbchat/internal/telemetry"
	"lbchat/internal/trace"
	"lbchat/internal/traceserve"
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
		scale := TestScale()
		scale.StreamTrace = true
		env, err := BuildEnv(scale)
		if err != nil {
			t.Fatalf("BuildEnv(streamed): %v", err)
		}
		streamedEnv = env
	}
	return streamedEnv
}

// TestStreamABDeterminism is the streaming-trace acceptance criterion: a full
// LbChat run driven by the sliding-window source must produce a
// byte-identical telemetry event stream and bit-identical experiment metrics
// (loss curve, receive stats, final parameters) as the resident-trace run, at
// every shard count × worker count combination. Chunk loads/evicts/prefetches
// flow through the telemetry.Observer side channel, never the event stream, so
// the streams must match even though one run pages chunks and the other holds
// the whole trace.
func TestStreamABDeterminism(t *testing.T) {
	runWith := func(env *Env, shards, workers int) (*ProtocolRun, [][]byte) {
		mem := telemetry.NewMemorySink()
		e := *env
		e.Telemetry = mem
		run, err := e.RunProtocol(ProtoLbChat, false, func(c *core.Config) {
			c.Shards = shards
			c.Workers = workers
		})
		if err != nil {
			t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
		}
		lines := make([][]byte, 0, mem.Len())
		for _, ev := range mem.Events() {
			line, err := telemetry.Encode(ev)
			if err != nil {
				t.Fatalf("encoding %s: %v", ev.Kind(), err)
			}
			lines = append(lines, line)
		}
		return run, lines
	}

	refRun, refStream := runWith(getEnv(t), 1, 1)
	if len(refStream) == 0 {
		t.Fatal("resident reference run emitted no events")
	}
	streamed := getStreamedEnv(t)

	// Third arm: the same spilled LBTC stream, but paged over localhost
	// through a trace-serve chunk server — the remote runs must match the
	// resident reference byte for byte too.
	fileSrc, err := trace.OpenFileSource(streamed.streamPath)
	if err != nil {
		t.Fatalf("indexing spill: %v", err)
	}
	defer fileSrc.Close()
	srv, err := traceserve.NewServer(fileSrc, traceserve.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client, err := traceserve.Dial(hs.URL, traceserve.ClientConfig{})
	if err != nil {
		t.Fatalf("dialing chunk server: %v", err)
	}
	defer client.Close()
	remoteEnv := *streamed
	remoteEnv.remote = client
	remoteEnv.streamPath, remoteEnv.ownsStream, remoteEnv.traceCloser = "", false, nil

	for _, arm := range []struct {
		name string
		env  *Env
	}{
		{"streamed", streamed},
		{"remote", &remoteEnv},
	} {
		for _, cell := range abCells() {
			shards, workers := cell[0], cell[1]
			run, stream := runWith(arm.env, shards, workers)
			if len(stream) != len(refStream) {
				t.Fatalf("%s shards=%d workers=%d: %d events, resident reference %d",
					arm.name, shards, workers, len(stream), len(refStream))
			}
			for i := range stream {
				if !bytes.Equal(stream[i], refStream[i]) {
					t.Fatalf("%s shards=%d workers=%d: event %d differs:\n%s: %s\nresident: %s",
						arm.name, shards, workers, i, arm.name, stream[i], refStream[i])
				}
			}
			sameRun(t, arm.name+" vs resident", run, refRun)
		}
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
	resident, err := getEnv(t).RunProtocol(ProtoLbChat, true, nil)
	if err != nil {
		t.Fatalf("resident run: %v", err)
	}
	if n := resident.Comm.Reg.Counter(telemetry.MTraceLoads); n != 0 {
		t.Errorf("resident run counted %d chunk loads, want 0", n)
	}
}
