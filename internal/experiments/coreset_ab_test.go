package experiments

import (
	"bytes"
	"slices"
	"testing"

	"lbchat/internal/core"
	"lbchat/internal/telemetry"
)

// TestFullRebuildABDeterminism covers the arm TestShardABDeterminism leaves
// out: with the incremental partition tree disabled, a full LbChat run must
// still produce a byte-identical telemetry event stream and bit-identical
// experiment metrics at every worker × shard combination. The two coreset
// arms are distinct sampling processes — within-arm determinism is asserted,
// and that the arms' streams differ (the flag really switches the refresh
// path); cross-arm quality is covered in internal/core.
func TestFullRebuildABDeterminism(t *testing.T) {
	runWith := func(full bool, workers, shards int) (*ProtocolRun, [][]byte) {
		mem := telemetry.NewMemorySink()
		env := envWithSink(t, mem)
		run, err := env.RunProtocol(ProtoLbChat, false, func(c *core.Config) {
			c.DisableIncrementalCoreset = full
			c.Workers = workers
			c.Shards = shards
		})
		if err != nil {
			t.Fatalf("workers=%d shards=%d: %v", workers, shards, err)
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

	refRun, refStream := runWith(true, 1, 1)
	if len(refStream) == 0 {
		t.Fatal("full-rebuild reference run emitted no events")
	}
	if _, incStream := runWith(false, 1, 1); slices.EqualFunc(incStream, refStream, bytes.Equal) {
		t.Fatal("full-rebuild arm emitted the incremental arm's stream; DisableIncrementalCoreset is not wired")
	}
	for _, combo := range [][2]int{{4, 2}, {8, 4}} {
		workers, shards := combo[0], combo[1]
		run, stream := runWith(true, workers, shards)
		if len(stream) != len(refStream) {
			t.Fatalf("workers=%d shards=%d: %d events, reference %d",
				workers, shards, len(stream), len(refStream))
		}
		for i := range stream {
			if !bytes.Equal(stream[i], refStream[i]) {
				t.Fatalf("workers=%d shards=%d: event %d differs:\nparallel:  %s\nreference: %s",
					workers, shards, i, stream[i], refStream[i])
			}
		}
		sameRun(t, "full-rebuild parallel vs serial", run, refRun)
	}
}

// TestCoresetTreeMetricsSideChannel asserts the incremental-refresh stats
// reach the run summary through the telemetry.Observer side channel — and stay
// out of it entirely on the full-rebuild arm, whose reports must render
// exactly as before the tree existed.
func TestCoresetTreeMetricsSideChannel(t *testing.T) {
	env := getEnv(t)
	incRun, err := env.RunProtocol(ProtoLbChat, false, nil)
	if err != nil {
		t.Fatalf("incremental run: %v", err)
	}
	if got := incRun.Comm.Reg.Counter(telemetry.MCoresetLeavesRebuilt); got == 0 {
		t.Error("incremental run recorded no rebuilt leaves")
	}
	if got := incRun.Comm.Reg.Counter(telemetry.MCoresetTreeMerges); got == 0 {
		t.Error("incremental run recorded no tree merges")
	}

	fullRun, err := env.RunProtocol(ProtoLbChat, false, func(c *core.Config) {
		c.DisableIncrementalCoreset = true
	})
	if err != nil {
		t.Fatalf("full-rebuild run: %v", err)
	}
	for _, metric := range []string{
		telemetry.MCoresetLeavesRebuilt,
		telemetry.MCoresetLeavesCached,
		telemetry.MCoresetTreeMerges,
	} {
		if got := fullRun.Comm.Reg.Counter(metric); got != 0 {
			t.Errorf("full-rebuild run recorded %s = %d, want 0", metric, got)
		}
	}
}
