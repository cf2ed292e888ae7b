package telemetry

// Canonical metric names aggregated by Summary. They are shared with the
// CSV output, so they are never renamed or reused; a name leaves with its
// only emitter, listed in CHANGES.md.
const (
	MChatInitiated = "chat.initiated"
	MChatCompleted = "chat.completed"
	MChatAborted   = "chat.aborted"
	MChatElapsedS  = "chat.elapsed_s"
	MChatPsi       = "chat.psi"

	MTransModel       = "transfer.model.count"
	MTransModelOK     = "transfer.model.completed"
	MBytesModelReq    = "bytes.model.requested"
	MBytesModelGot    = "bytes.model.delivered"
	MTransCoreset     = "transfer.coreset.count"
	MTransCoresetOK   = "transfer.coreset.completed"
	MBytesCoresetReq  = "bytes.coreset.requested"
	MBytesCoresetGot  = "bytes.coreset.delivered"
	MTransferBytes    = "transfer.bytes"
	MTransferTruncate = "transfer.truncated"

	MAggregations = "aggregation.count"
	MAggWPeer     = "aggregation.w_peer"

	MCoresetAbsorbFrames = "coreset.absorbed_frames"
	MCoresetEvictFrames  = "coreset.evicted_frames"
	MCoresetRebuilds     = "coreset.rebuilds"

	MCoresetLeavesRebuilt = "coreset.leaves_rebuilt"
	MCoresetLeavesCached  = "coreset.leaves_cached"
	MCoresetTreeMerges    = "coreset.tree_merges"

	MContactsOpened  = "contact.opened"
	MContactDuration = "contact.duration_s"

	MTrainSteps  = "train.steps"
	MTrainWallNs = "train.wall_ns"

	MSchedDueDequeued    = "sched.due_dequeued"
	MSchedBucketsTouched = "sched.buckets_touched"

	MSkinRebuilds = "spatial.skin_rebuilds"

	MTraceLoads       = "trace.chunk_loads"
	MTraceEvicts      = "trace.chunk_evicts"
	MTracePrefetches  = "trace.chunk_prefetches"
	MTraceResident    = "trace.resident_chunks"
	MTraceFetchWaitNs = "trace.chunk_fetch_wait_ns"

	MFaultsInjected = "fault.injected"
	MChatResumed    = "chat.resumed"
	MResumeSavedB   = "chat.resume_saved_bytes"
	MSalvages       = "salvage.count"
	MSalvageFrames  = "salvage.frames"
)

// KnownMetrics lists every canonical metric name a Summary can emit, for
// validators (cmd/telemetry-lint -summary) to check CSV dumps against.
// Per-fault counters ("fault.<name>") are dynamic and not listed; accept
// any name under the "fault." prefix alongside this list.
func KnownMetrics() []string {
	return []string{
		MChatInitiated, MChatCompleted, MChatAborted, MChatElapsedS, MChatPsi,
		MTransModel, MTransModelOK, MBytesModelReq, MBytesModelGot,
		MTransCoreset, MTransCoresetOK, MBytesCoresetReq, MBytesCoresetGot,
		MTransferBytes, MTransferTruncate,
		MAggregations, MAggWPeer,
		MCoresetAbsorbFrames, MCoresetEvictFrames, MCoresetRebuilds,
		MCoresetLeavesRebuilt, MCoresetLeavesCached, MCoresetTreeMerges,
		MContactsOpened, MContactDuration,
		MTrainSteps, MTrainWallNs,
		MSchedDueDequeued, MSchedBucketsTouched,
		MSkinRebuilds,
		MTraceLoads, MTraceEvicts, MTracePrefetches, MTraceResident,
		MTraceFetchWaitNs,
		MFaultsInjected, MChatResumed, MResumeSavedB, MSalvages, MSalvageFrames,
	}
}

// Fixed bucket edges for the Summary histograms. Fixed across runs so
// per-protocol summaries are directly comparable.
var (
	psiEdges     = []float64{0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1}
	elapsedEdges = []float64{1, 2, 5, 10, 15, 20}
	bytesEdges   = []float64{1e4, 1e5, 1e6, 5e6, 1e7, 5e7}
	contactEdges = []float64{5, 15, 30, 60, 120, 300}
	wPeerEdges   = []float64{0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9}
)

// sideChannelEdges holds the bucket edges of the side-channel metrics that
// are distributions; Summary.Observe counts every other name.
var sideChannelEdges = map[string][]float64{
	MTrainWallNs:   {1e4, 1e5, 1e6, 1e7, 1e8, 1e9},
	MTraceResident: {1, 2, 3, 4, 6, 8, 16},
}

// Summary is the always-cheap aggregating sink: it folds the event stream
// into a Registry of counters and fixed-bucket histograms and keeps the
// run-level identifiers, never retaining events. It is the basis of the
// end-of-run communication-efficiency report.
type Summary struct {
	// Protocol and Lossless identify the run (from its RunStarted event).
	Protocol string
	Lossless bool
	// FinalLoss tracks the last recorded probe loss.
	FinalLoss float64
	// Canceled reports whether the run stopped early.
	Canceled bool
	// Reg holds the aggregated counters and histograms.
	Reg *Registry
}

// NewSummary returns an empty summary collector.
func NewSummary() *Summary {
	return &Summary{Reg: NewRegistry()}
}

// Emit implements Sink.
func (s *Summary) Emit(ev Event) {
	switch e := ev.(type) {
	case RunStarted:
		s.Protocol, s.Lossless = e.Protocol, e.Lossless
	case RunFinished:
		s.FinalLoss, s.Canceled = e.FinalLoss, e.Canceled
	case ChatInitiated:
		s.Reg.Inc(MChatInitiated, 1)
	case ChatCompleted:
		s.Reg.Inc(MChatCompleted, 1)
		s.Reg.Observe(MChatElapsedS, elapsedEdges, e.Elapsed)
	case ChatAborted:
		s.Reg.Inc(MChatAborted, 1)
	case CompressionChosen:
		s.Reg.Observe(MChatPsi, psiEdges, e.Psi)
	case Transfer:
		switch e.Payload {
		case PayloadCoreset:
			s.Reg.Inc(MTransCoreset, 1)
			s.Reg.Inc(MBytesCoresetReq, int64(e.BytesRequested))
			s.Reg.Inc(MBytesCoresetGot, int64(e.BytesDelivered))
			if e.Completed {
				s.Reg.Inc(MTransCoresetOK, 1)
			}
		default: // model payloads, including infrastructure legs
			s.Reg.Inc(MTransModel, 1)
			s.Reg.Inc(MBytesModelReq, int64(e.BytesRequested))
			s.Reg.Inc(MBytesModelGot, int64(e.BytesDelivered))
			if e.Completed {
				s.Reg.Inc(MTransModelOK, 1)
			}
		}
		if !e.Completed {
			s.Reg.Inc(MTransferTruncate, 1)
		}
		s.Reg.Observe(MTransferBytes, bytesEdges, float64(e.BytesRequested))
	case Aggregation:
		s.Reg.Inc(MAggregations, 1)
		s.Reg.Observe(MAggWPeer, wPeerEdges, e.WPeer)
	case CoresetAbsorbed:
		s.Reg.Inc(MCoresetAbsorbFrames, int64(e.Frames))
	case CoresetEvicted:
		s.Reg.Inc(MCoresetEvictFrames, int64(e.Dropped))
	case CoresetRebuilt:
		s.Reg.Inc(MCoresetRebuilds, 1)
	case ContactOpen:
		s.Reg.Inc(MContactsOpened, 1)
	case ContactClose:
		s.Reg.Observe(MContactDuration, contactEdges, e.Duration)
	case TrainStep:
		s.Reg.Inc(MTrainSteps, int64(e.Steps))
	case LossRecorded:
		s.FinalLoss = e.Loss
	case FaultInjected:
		s.Reg.Inc(MFaultsInjected, 1)
		s.Reg.Inc("fault."+e.Fault, 1)
	case ChatResumed:
		s.Reg.Inc(MChatResumed, 1)
		s.Reg.Inc(MResumeSavedB, int64(e.SavedBytes))
	case PartialSalvage:
		s.Reg.Inc(MSalvages, 1)
		s.Reg.Inc(MSalvageFrames, int64(e.Frames))
	}
}

// Observe implements Observer: a name with sideChannelEdges lands in that
// histogram, any other adds int64(value) to its counter. Side-channel values
// live only in these aggregates, never in the event stream.
func (s *Summary) Observe(name string, value float64) {
	if edges, ok := sideChannelEdges[name]; ok {
		s.Reg.Observe(name, edges, value)
		return
	}
	s.Reg.Inc(name, int64(value))
}

// Close implements Sink (no-op).
func (s *Summary) Close() error { return nil }

// Chats returns the initiated/completed/aborted chat counts.
func (s *Summary) Chats() (initiated, completed, aborted int64) {
	return s.Reg.Counter(MChatInitiated), s.Reg.Counter(MChatCompleted), s.Reg.Counter(MChatAborted)
}

// BytesRequested returns the over-the-air bytes handed to the radio, split
// by payload.
func (s *Summary) BytesRequested() (model, coreset int64) {
	return s.Reg.Counter(MBytesModelReq), s.Reg.Counter(MBytesCoresetReq)
}

// BytesDelivered returns the bytes that made it across, split by payload.
func (s *Summary) BytesDelivered() (model, coreset int64) {
	return s.Reg.Counter(MBytesModelGot), s.Reg.Counter(MBytesCoresetGot)
}

// TotalBytesRequested is the run's total over-the-air byte demand.
func (s *Summary) TotalBytesRequested() int64 {
	m, c := s.BytesRequested()
	return m + c
}
