package telemetry

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// TestHistogramBoundaries pins the bucket rule at the edges: a value exactly
// on an edge lands in the bucket that starts at that edge.
func TestHistogramBoundaries(t *testing.T) {
	h := NewHistogram(1, 2, 5)
	if len(h.Counts) != 4 {
		t.Fatalf("bucket count = %d, want 4", len(h.Counts))
	}
	cases := []struct {
		v      float64
		bucket int
	}{
		{0.99, 0},  // below first edge
		{1, 1},     // exactly first edge → starts bucket 1
		{1.5, 1},   // interior
		{2, 2},     // exactly second edge
		{4.999, 2}, // just under third edge
		{5, 3},     // exactly last edge → overflow bucket
		{100, 3},   // far overflow
		{-3, 0},    // negative underflow
	}
	for _, c := range cases {
		before := append([]int64(nil), h.Counts...)
		h.Observe(c.v)
		for i := range h.Counts {
			want := before[i]
			if i == c.bucket {
				want++
			}
			if h.Counts[i] != want {
				t.Errorf("Observe(%v): bucket %d count %d, want %d", c.v, i, h.Counts[i], want)
			}
		}
	}
	if h.N != int64(len(cases)) {
		t.Errorf("N = %d, want %d", h.N, len(cases))
	}
}

func TestHistogramRejectsUnsortedEdges(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-ascending edges accepted")
		}
	}()
	NewHistogram(1, 1)
}

func TestRegistryCountersAndCSV(t *testing.T) {
	r := NewRegistry()
	r.Inc("b.count", 2)
	r.Inc("a.count", 1)
	r.Inc("b.count", 3)
	r.Observe("lat", []float64{1, 10}, 0.5)
	r.Observe("lat", nil, 10)

	if got := r.Counter("b.count"); got != 5 {
		t.Errorf("b.count = %d", got)
	}
	if got := r.Counter("missing"); got != 0 {
		t.Errorf("missing counter = %d", got)
	}
	var sb strings.Builder
	if err := r.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	wantLines := []string{
		"counter,a.count,,1",
		"counter,b.count,,5",
		"hist,lat,lt:1,1",
		"hist,lat,ge:1,0",
		"hist,lat,ge:10,1",
		"hist,lat,count,2",
	}
	for _, w := range wantLines {
		if !strings.Contains(out, w) {
			t.Errorf("CSV missing %q:\n%s", w, out)
		}
	}
	// Counters must precede histograms and sort by name: deterministic.
	if strings.Index(out, "a.count") > strings.Index(out, "b.count") {
		t.Error("counters not sorted")
	}
}

func TestSummaryAggregation(t *testing.T) {
	s := NewSummary()
	s.Emit(RunStarted{Protocol: "LbChat", Lossless: true})
	s.Emit(ChatInitiated{Time: 10, A: 0, B: 1, Contact: 40, Window: 15})
	s.Emit(Transfer{Time: 10, From: 0, To: 1, Payload: PayloadCoreset, BytesRequested: 600_000, BytesDelivered: 600_000, Completed: true})
	s.Emit(CompressionChosen{Time: 10, From: 0, To: 1, Psi: 0.35, Bytes: 18_200_000})
	s.Emit(Transfer{Time: 10, From: 0, To: 1, Payload: PayloadModel, BytesRequested: 18_200_000, BytesDelivered: 9_000_000, Truncated: TruncDeadline})
	s.Emit(ChatCompleted{Time: 10, A: 0, B: 1, Elapsed: 14.2})
	s.Emit(Aggregation{Time: 11, Vehicle: 1, WSelf: 0.4, WPeer: 0.6})
	s.Emit(TrainStep{Time: 12, Vehicle: 0, Steps: 2, Loss: 0.5})
	s.Emit(LossRecorded{Time: 60, Loss: 0.42})

	if s.Protocol != "LbChat" || !s.Lossless {
		t.Errorf("run identity: %q lossless=%v", s.Protocol, s.Lossless)
	}
	if init, done, aborted := s.Chats(); init != 1 || done != 1 || aborted != 0 {
		t.Errorf("chats = %d/%d/%d", init, done, aborted)
	}
	m, c := s.BytesRequested()
	if m != 18_200_000 || c != 600_000 {
		t.Errorf("bytes requested = %d model, %d coreset", m, c)
	}
	if got := s.TotalBytesRequested(); got != 18_800_000 {
		t.Errorf("total bytes = %d", got)
	}
	gm, gc := s.BytesDelivered()
	if gm != 9_000_000 || gc != 600_000 {
		t.Errorf("bytes delivered = %d model, %d coreset", gm, gc)
	}
	if s.Reg.Counter(MTransferTruncate) != 1 {
		t.Errorf("truncated = %d", s.Reg.Counter(MTransferTruncate))
	}
	if s.Reg.Counter(MTrainSteps) != 2 {
		t.Errorf("train steps = %d", s.Reg.Counter(MTrainSteps))
	}
	if s.FinalLoss != 0.42 {
		t.Errorf("final loss = %v", s.FinalLoss)
	}
	if h := s.Reg.Hist(MChatPsi); h == nil || h.N != 1 {
		t.Error("psi histogram not recorded")
	}
}

func TestMemorySinkAndTee(t *testing.T) {
	a, b := NewMemorySink(), NewMemorySink()
	s := NewSummary()
	tee := Tee(nil, a, s, b)
	tee.Emit(ChatInitiated{Time: 1, A: 0, B: 1})
	tee.Emit(ChatAborted{Time: 2, A: 0, B: 1, Reason: AbortCoresetExchange})
	if a.Len() != 2 || b.Len() != 2 {
		t.Errorf("tee fan-out lens = %d, %d", a.Len(), b.Len())
	}
	if _, _, aborted := s.Chats(); aborted != 1 {
		t.Error("summary member did not aggregate")
	}

	dst := NewMemorySink()
	a.Drain(dst)
	if a.Len() != 0 || dst.Len() != 2 {
		t.Errorf("drain: src %d, dst %d", a.Len(), dst.Len())
	}
	if dst.Events()[0].Kind() != KindChatInitiated {
		t.Error("drain reordered events")
	}

	// Tee with a single live sink unwraps.
	if got := Tee(nil, a); got != Sink(a) {
		t.Error("single-member tee not unwrapped")
	}
	if got := Tee(nil, nil); got != nil {
		t.Error("empty tee must be nil")
	}
}

// TestObserverSideChannel pins the one side channel: through a Tee of all
// three shipped sinks every side-channel metric lands in the Summary counter
// or histogram bucket its name selects, the two event sinks see nothing, a
// Tee without an observing member is not an Observer, and observing a name
// already seen allocates nothing.
func TestObserverSideChannel(t *testing.T) {
	cases := []struct {
		name   string
		value  float64
		bucket int // histogram bucket the value lands in; -1 for a counter
	}{
		{MCoresetLeavesRebuilt, 3, -1},
		{MCoresetLeavesCached, 0, -1},
		{MCoresetTreeMerges, 2, -1},
		{MTrainWallNs, 5e6, 3},
		{MSchedDueDequeued, 0, -1},
		{MSchedBucketsTouched, 7, -1},
		{MSkinRebuilds, 1, -1},
		{MTraceLoads, 1, -1},
		{MTraceEvicts, 1, -1},
		{MTracePrefetches, 1, -1},
		{MTraceResident, 5, 4},
		{MTraceFetchRetries, 2, -1},
		{MTraceFetchWaitNs, 1.5e6, -1},
		{MTracePrefetchDepth, 0, 0},
	}
	sum, mem := NewSummary(), NewMemorySink()
	var stream bytes.Buffer
	jsonl := NewJSONL(&stream)
	obs, ok := Tee(sum, mem, jsonl).(Observer)
	if !ok {
		t.Fatal("a Tee with a Summary member must be an Observer")
	}
	known := KnownMetrics()
	hists := 0
	for _, c := range cases {
		if !slices.Contains(known, c.name) {
			t.Errorf("%s is not in KnownMetrics", c.name)
		}
		obs.Observe(c.name, c.value)
		obs.Observe(c.name, c.value)
		h := sum.Reg.Hist(c.name)
		if c.bucket < 0 {
			if got := sum.Reg.Counter(c.name); got != 2*int64(c.value) || h != nil {
				t.Errorf("%s: counter %d (histogram %v), want counter %d", c.name, got, h != nil, 2*int64(c.value))
			}
			continue
		}
		hists++
		if h == nil || h.N != 2 || h.Counts[c.bucket] != 2 || h.Sum != 2*c.value {
			t.Errorf("%s: histogram %+v, want both values in bucket %d", c.name, h, c.bucket)
		}
		if slices.Contains(sum.Reg.CounterNames(), c.name) {
			t.Errorf("%s: histogram metric also counted", c.name)
		}
	}
	if hists != len(sideChannelEdges) {
		t.Errorf("table covers %d histogram metrics, sideChannelEdges has %d", hists, len(sideChannelEdges))
	}
	if err := jsonl.Close(); err != nil {
		t.Fatal(err)
	}
	if mem.Len() != 0 || stream.Len() != 0 {
		t.Errorf("side channel reached the event sinks: %d events buffered, %d bytes streamed", mem.Len(), stream.Len())
	}
	if _, ok := Tee(mem, NewMemorySink()).(Observer); ok {
		t.Error("a Tee of event-only sinks must not be an Observer")
	}
	if n := testing.AllocsPerRun(100, func() {
		obs.Observe(MSchedDueDequeued, 1)
		obs.Observe(MTrainWallNs, 1e6)
	}); n != 0 {
		t.Errorf("Observe on seen names allocates %v per run", n)
	}
}
