package experiments

import (
	"bytes"
	"testing"

	"lbchat/internal/core"
	"lbchat/internal/telemetry"
)

// TestShardABDeterminism is the sharded-engine acceptance criterion: a full
// LbChat run must produce a byte-identical telemetry event stream and
// bit-identical experiment metrics (loss curve, receive stats, final
// parameters) at every shard count × worker count combination, with the
// unsharded serial run as the reference. Per-shard scan stats flow through
// the telemetry.Observer side channel, never the event stream, so the
// streams must match even though shard counts differ.
func TestShardABDeterminism(t *testing.T) {
	runWith := func(shards, workers int) (*ProtocolRun, [][]byte) {
		mem := telemetry.NewMemorySink()
		env := envWithSink(t, mem)
		run, err := env.RunProtocol(ProtoLbChat, false, func(c *core.Config) {
			c.Shards = shards
			c.Workers = workers
		})
		if err != nil {
			t.Fatalf("shards=%d workers=%d: %v", shards, workers, err)
		}
		return run, encodedLines(t, mem)
	}

	refRun, refStream := runWith(1, 1)
	if len(refStream) == 0 {
		t.Fatal("unsharded reference run emitted no events")
	}
	for _, cell := range abCells() {
		shards, workers := cell[0], cell[1]
		if shards == 1 && workers == 1 {
			continue
		}
		run, stream := runWith(shards, workers)
		if len(stream) != len(refStream) {
			t.Fatalf("shards=%d workers=%d: %d events, reference %d",
				shards, workers, len(stream), len(refStream))
		}
		for i := range stream {
			if !bytes.Equal(stream[i], refStream[i]) {
				t.Fatalf("shards=%d workers=%d: event %d differs:\ngot:       %s\nreference: %s",
					shards, workers, i, stream[i], refStream[i])
			}
		}
		sameRun(t, "vs serial unsharded", run, refRun)
	}
}

// abCells is the (shards, workers) grid the A/B determinism tests cover:
// all of {1,2,4} × {1,4,8}, or its diagonal under the race detector, where
// these grids were most of a 29-minute `make race`. Plain `go test` keeps
// the full grid, and no off-diagonal cell has ever differed from the
// reference (CHANGES.md).
func abCells() [][2]int {
	if raceDetector {
		return [][2]int{{1, 1}, {2, 4}, {4, 8}}
	}
	return [][2]int{{1, 1}, {1, 4}, {1, 8}, {2, 1}, {2, 4}, {2, 8}, {4, 1}, {4, 4}, {4, 8}}
}
