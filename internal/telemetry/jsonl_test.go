package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// allEventKinds is one populated instance of every event type; the
// round-trip test walks it so a new event type cannot be added without
// registering a decoder.
var allEventKinds = []Event{
	RunStarted{Protocol: "LbChat", Lossless: true},
	RunFinished{Protocol: "LbChat", Time: 2400, FinalLoss: 0.31, Canceled: true},
	ChatInitiated{Time: 10, A: 1, B: 2, Contact: 44.5, Window: 15},
	ChatCompleted{Time: 10, A: 1, B: 2, Elapsed: 13.7},
	ChatAborted{Time: 11, A: 3, B: 4, Reason: AbortCoresetExchange},
	CompressionChosen{Time: 10, From: 1, To: 2, Psi: 0.35, Bytes: 18_200_000},
	Transfer{Time: 10, From: 1, To: 2, Payload: PayloadModel, BytesRequested: 100, BytesDelivered: 50, Elapsed: 3.2, Truncated: "range"},
	Aggregation{Time: 12, Vehicle: 2, WSelf: 0.45, WPeer: 0.55},
	CoresetAbsorbed{Time: 12, Vehicle: 2, Frames: 150},
	CoresetEvicted{Time: 12, Vehicle: 2, Dropped: 150},
	CoresetRebuilt{Time: 13, Vehicle: 1, Size: 150},
	ContactOpen{Time: 9, A: 1, B: 2},
	ContactClose{Time: 60, A: 1, B: 2, Duration: 51},
	TrainStep{Time: 14, Vehicle: 0, Steps: 1, Loss: 0.8},
	LossRecorded{Time: 60, Loss: 0.44},
	FaultInjected{Time: 15, Fault: FaultBurstLoss, A: 1, B: 2, Value: 0.4},
	ChatResumed{Time: 70, A: 1, B: 2, SavedBytes: 120_000, Age: 33},
	PartialSalvage{Time: 70, Vehicle: 1, From: 2, Frames: 3, Total: 30, Discount: 0.1},
	ChatDecision{
		Time: 10, A: 1, B: 2, Contact: 44.5, Window: 13.2,
		LossAonB: 0.52, LossBonA: 0.61,
		PhiPsiA: []float64{0.2, 0.5, 1}, PhiLossA: []float64{0.71, 0.55, 0.5},
		PhiPsiB: []float64{0.2, 0.5, 1}, PhiLossB: []float64{0.8, 0.6, 0.58},
		PsiA: 0.36, PsiB: 0, Objective: 0.0125, GainA: 0.01, GainB: 0.04,
	},
}

func TestJSONLRoundTripEveryKind(t *testing.T) {
	if len(allEventKinds) != len(decoders) {
		t.Fatalf("test covers %d kinds, decoder table has %d", len(allEventKinds), len(decoders))
	}
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	for _, ev := range allEventKinds {
		sink.Emit(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(allEventKinds) {
		t.Fatalf("decoded %d events, wrote %d", len(got), len(allEventKinds))
	}
	for i, want := range allEventKinds {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("event %d: got %#v, want %#v", i, got[i], want)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Decode([]byte(`{"kind":"nope","ev":{}}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Decode([]byte(`{"kind":"transfer","ev":{"from":"x"}}`)); err == nil {
		t.Error("type-mismatched payload accepted")
	}
}

func TestReadJSONLSkipsBlankLinesAndReportsLine(t *testing.T) {
	in := `{"kind":"contact_open","ev":{"time":1,"a":0,"b":1}}

{"kind":"broken"`
	events, err := ReadJSONL(strings.NewReader(in))
	if err == nil {
		t.Fatal("broken trailing line accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error does not name the line: %v", err)
	}
	if len(events) != 1 {
		t.Errorf("got %d events before the error", len(events))
	}
}
