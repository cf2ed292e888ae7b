package core

import (
	"math"
	"testing"

	"lbchat/internal/coreset"
	"lbchat/internal/dataset"
	"lbchat/internal/faults"
	"lbchat/internal/simrand"
	"lbchat/internal/telemetry"
)

// salvageScenario pins a two-vehicle geometry where the coreset exchange
// deterministically breaks one-sided: with both bandwidths forced to 24 Mbps
// and a 45 ms exchange window over a lossless radio, the 30-frame (120 kB)
// A→B leg completes in exactly 40 ms and the B→A leg gets 5 ms — 10 packets,
// 3 frames, below the 25% viability threshold of 7.
func salvageScenario(t *testing.T) (*Engine, *LbChat, *telemetry.MemorySink, float64) {
	t.Helper()
	eng, _ := tinyEnv(t, 2, true)
	eng.Cfg.TimeBudget = 0.045
	va, vb := eng.Vehicles[0], eng.Vehicles[1]
	va.Bandwidth, vb.Bandwidth = 24e6, 24e6
	// Find a moment when the pair is comfortably in range (and stays there
	// for the following second, for the resumption re-encounter).
	at := -1.0
	for ts := 0.0; ts < 490; ts += 0.5 {
		if eng.Trace.Distance(0, 1, ts) < 300 && eng.Trace.Distance(0, 1, ts+1.5) < 400 {
			at = ts
			break
		}
	}
	if at < 0 {
		t.Fatal("no close encounter between vehicles 0 and 1 in the trace")
	}
	eng.now = at
	sink := telemetry.NewMemorySink()
	eng.Cfg.Telemetry = sink
	eng.tel = sink
	l := NewLbChat()
	if err := l.Setup(eng); err != nil {
		t.Fatal(err)
	}
	return eng, l, sink, at
}

// eventKinds counts the sink's events by kind.
func eventKinds(sink *telemetry.MemorySink) map[string]int {
	counts := map[string]int{}
	for _, ev := range sink.Events() {
		counts[ev.Kind()]++
	}
	return counts
}

// TestOneSidedSalvageOnAbort is the regression test for the historical bug
// where an aborted coreset exchange discarded the direction that HAD been
// delivered: when the A→B leg lands and the B→A leg breaks, B must still
// absorb A's full coreset and A must absorb the discounted salvaged prefix —
// even with fault injection off.
func TestOneSidedSalvageOnAbort(t *testing.T) {
	eng, l, sink, _ := salvageScenario(t)
	va, vb := eng.Vehicles[0], eng.Vehicles[1]
	beforeA, beforeB := va.Data.Len(), vb.Data.Len()

	l.chat(eng, 0, 1)
	eng.Events.RunUntil(eng.now + 1)

	counts := eventKinds(sink)
	if counts[telemetry.KindChatAborted] != 1 {
		t.Fatalf("chat_aborted count = %d, want 1 (events: %v)", counts[telemetry.KindChatAborted], counts)
	}
	if counts[telemetry.KindPartialSalvage] != 1 {
		t.Fatalf("partial_salvage count = %d, want 1", counts[telemetry.KindPartialSalvage])
	}
	// B holds A's complete 30-frame coreset; A holds the 3-frame salvage.
	if got := vb.Data.Len() - beforeB; got != 30 {
		t.Errorf("B absorbed %d frames from the delivered direction, want 30", got)
	}
	if got := va.Data.Len() - beforeA; got != 3 {
		t.Errorf("A absorbed %d salvaged frames, want 3", got)
	}
	var salvage telemetry.PartialSalvage
	for _, ev := range sink.Events() {
		if s, ok := ev.(telemetry.PartialSalvage); ok {
			salvage = s
		}
	}
	if salvage.Vehicle != 0 || salvage.From != 1 {
		t.Errorf("salvage direction = %d<-%d, want 0<-1", salvage.Vehicle, salvage.From)
	}
	if salvage.Frames != 3 || salvage.Total != 30 {
		t.Errorf("salvage frames = %d/%d, want 3/30", salvage.Frames, salvage.Total)
	}
	if salvage.Discount != 0.1 {
		t.Errorf("salvage discount = %v, want 0.1", salvage.Discount)
	}
	// The broken session is parked for resumption.
	if len(l.sessions) != 1 {
		t.Errorf("broken session not recorded: %d sessions", len(l.sessions))
	}
}

// TestChatResumptionSkipsDeliveredLeg re-encounters the pair after the
// one-sided abort: the resumed session must not re-send (or re-absorb) A's
// already-delivered coreset, and with the full window available to the B→A
// leg alone, the chat completes.
func TestChatResumptionSkipsDeliveredLeg(t *testing.T) {
	eng, l, sink, at := salvageScenario(t)
	va, vb := eng.Vehicles[0], eng.Vehicles[1]

	l.chat(eng, 0, 1)
	eng.Events.RunUntil(eng.now + 0.5)
	midA, midB := va.Data.Len(), vb.Data.Len()

	eng.now = at + 1 // re-encounter, well inside resumeTTL
	l.chat(eng, 0, 1)
	eng.Events.RunUntil(eng.now + 1)

	counts := eventKinds(sink)
	if counts[telemetry.KindChatResumed] != 1 {
		t.Fatalf("chat_resumed count = %d, want 1 (events: %v)", counts[telemetry.KindChatResumed], counts)
	}
	if counts[telemetry.KindChatCompleted] != 1 {
		t.Fatalf("resumed chat did not complete (events: %v)", counts)
	}
	var resumed telemetry.ChatResumed
	for _, ev := range sink.Events() {
		if r, ok := ev.(telemetry.ChatResumed); ok {
			resumed = r
		}
	}
	// The saved re-transmission is A's full 30-frame coreset: 120 kB.
	if want := eng.CoresetWireBytes(30); resumed.SavedBytes != want {
		t.Errorf("resume saved %d bytes, want %d", resumed.SavedBytes, want)
	}
	if resumed.Age != 1 {
		t.Errorf("resume age = %v, want 1", resumed.Age)
	}
	// Double-count guard: B already absorbed A's coreset when the session
	// broke, so the resumed chat must not grow B's dataset again. A now
	// absorbs B's freshly delivered full coreset.
	if vb.Data.Len() != midB {
		t.Errorf("B re-absorbed a resumed leg: %d -> %d", midB, vb.Data.Len())
	}
	if got := va.Data.Len() - midA; got != 30 {
		t.Errorf("A absorbed %d frames from the resent direction, want 30", got)
	}
	if len(l.sessions) != 0 {
		t.Errorf("%d sessions left after successful resume", len(l.sessions))
	}
}

// TestNoResumptionVariantRestartsFromScratch is the FaultSweep comparison
// arm: with NoResumption set, a broken exchange is forgotten — the
// re-encounter re-sends everything and never emits chat_resumed.
func TestNoResumptionVariantRestartsFromScratch(t *testing.T) {
	eng, l, sink, at := salvageScenario(t)
	l.Variant.NoResumption = true
	vb := eng.Vehicles[1]

	l.chat(eng, 0, 1)
	eng.Events.RunUntil(eng.now + 0.5)
	if len(l.sessions) != 0 {
		t.Fatalf("NoResumption recorded %d sessions", len(l.sessions))
	}
	midB := vb.Data.Len()

	eng.now = at + 1
	l.chat(eng, 0, 1)
	eng.Events.RunUntil(eng.now + 1)

	counts := eventKinds(sink)
	if counts[telemetry.KindChatResumed] != 0 {
		t.Errorf("NoResumption emitted %d chat_resumed events", counts[telemetry.KindChatResumed])
	}
	// The A→B leg was re-sent from scratch and re-absorbed.
	if got := vb.Data.Len() - midB; got != 30 {
		t.Errorf("restarted exchange absorbed %d frames at B, want 30", got)
	}
}

// TestSendCoresetZeroDeadline pins the zero-window early return: a leg with
// no time left must not touch the radio (no transfer event, no elapsed time,
// no randomness) and reports an empty outcome.
func TestSendCoresetZeroDeadline(t *testing.T) {
	eng, l, sink, _ := salvageScenario(t)
	cs, err := eng.EnsureCoreset(eng.Vehicles[0])
	if err != nil {
		t.Fatal(err)
	}
	before := sink.Len()
	for _, deadline := range []float64{0, -1} {
		leg, elapsed := l.sendCoreset(eng, cs, 0, 1, deadline)
		if leg.core != nil || leg.frames != 0 || leg.full || elapsed != 0 {
			t.Errorf("deadline %v: leg = %+v, elapsed = %v; want empty outcome", deadline, leg, elapsed)
		}
	}
	if sink.Len() != before {
		t.Error("zero-deadline leg emitted events")
	}
}

// TestTransferResilientWithoutFaults: with faults off, TransferResilient is
// exactly one transfer — the retry loop must not engage, keeping no-fault
// runs byte-compatible with the pre-resilience engine.
func TestTransferResilientWithoutFaults(t *testing.T) {
	eng, _, sink, _ := salvageScenario(t)
	res := eng.TransferResilient(telemetry.PayloadCoreset, 120_000, 0, 1, 0.045)
	if !res.Completed {
		t.Fatalf("clean transfer failed: %+v", res)
	}
	transfers := 0
	for _, ev := range sink.Events() {
		if _, ok := ev.(telemetry.Transfer); ok {
			transfers++
		}
	}
	if transfers != 1 {
		t.Errorf("faults-off resilient transfer made %d attempts, want 1", transfers)
	}
}

// TestFaultedEngineRunsAndLearns drives a short LbChat run under the heavy
// fault profile end to end: it must not error, must keep learning, and must
// actually inject faults (visible in telemetry). The injector is installed
// the way NewEngine builds it — from the root seed's derived "faults"
// stream, which is identical regardless of what else the root has served.
func TestFaultedEngineRunsAndLearns(t *testing.T) {
	eng, _ := tinyEnv(t, 3, false)
	cfgf, err := faults.ByName("heavy")
	if err != nil {
		t.Fatal(err)
	}
	eng.Cfg.Faults = cfgf
	eng.faults = faults.NewInjector(cfgf, simrand.New(eng.Cfg.Seed).Derive("faults"), len(eng.Vehicles))
	sink := telemetry.NewMemorySink()
	eng.Cfg.Telemetry = sink
	eng.tel = sink
	if err := eng.Run(NewLbChat(), 300); err != nil {
		t.Fatal(err)
	}
	if eng.LossCurve.Final() >= eng.LossCurve.Points[0].Value {
		t.Error("faulted run did not learn")
	}
	counts := eventKinds(sink)
	if counts[telemetry.KindFaultInjected] == 0 {
		t.Error("heavy profile injected no faults in 300s")
	}
}

// TestSalvageCoresetProperty draws coresets of 1–40 items with weights
// spread over twelve orders of magnitude and cuts them at every kind of
// frame count: none or fewer (nil), all or more (the coreset itself), and
// any prefix in between, whose items are the prefix's samples with each
// weight scaled by frames/len — bit for bit, item for item.
func TestSalvageCoresetProperty(t *testing.T) {
	rng := simrand.New(107)
	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(40)
		ds := dataset.New(n)
		for i := 0; i < n; i++ {
			ds.Add(dataset.Sample{Speed: float64(i)}, math.Exp(rng.Uniform(-14, 14)))
		}
		cs := coreset.FromDataset(ds)
		frames := rng.Intn(n+7) - 3
		got := salvageCoreset(cs, frames)
		switch {
		case frames <= 0:
			if got != nil {
				t.Fatalf("salvage of %d of %d frames = %d items, want nil", frames, n, got.Len())
			}
		case frames >= n:
			if got != cs {
				t.Fatalf("salvage of %d of %d frames is not the coreset itself", frames, n)
			}
		default:
			if got == nil || got.Len() != frames {
				t.Fatalf("salvage of %d of %d frames = %v", frames, n, got)
			}
			discount := float64(frames) / float64(n)
			for i, it := range got.Items() {
				want := cs.Items()[i]
				if it.Sample.Speed != want.Sample.Speed || math.Float64bits(it.Weight) != math.Float64bits(want.Weight*discount) {
					t.Fatalf("salvage of %d of %d frames: item %d = (%v, %v), want (%v, %v × %v)",
						frames, n, i, it.Sample.Speed, it.Weight, want.Sample.Speed, want.Weight, discount)
				}
			}
		}
	}
}
