package experiments

import (
	"testing"

	"lbchat/internal/telemetry"
)

// TestCoresetTreeMetricsSideChannel asserts the coreset refresh's leaf and
// merge stats reach the run summary through the telemetry.Observer side
// channel (they never enter the event stream, so the goldens cannot see
// them).
func TestCoresetTreeMetricsSideChannel(t *testing.T) {
	run, _ := goldenRun(t, ProtoLbChat, false)
	if got := run.Comm.Reg.Counter(telemetry.MCoresetLeavesRebuilt); got == 0 {
		t.Error("run recorded no rebuilt leaves")
	}
	if got := run.Comm.Reg.Counter(telemetry.MCoresetTreeMerges); got == 0 {
		t.Error("run recorded no tree merges")
	}
}
