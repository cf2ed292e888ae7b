package telemetry

import "sync"

// Sink consumes telemetry events. Engine emission is single-goroutine by
// construction (parallel phases buffer and emit serially), but sinks shipped
// by this package are additionally mutex-guarded so one sink can safely be
// shared across concurrent protocol runs.
type Sink interface {
	// Emit records one event.
	Emit(ev Event)
	// Close flushes buffered state and releases resources.
	Close() error
}

// WallObserver receives wall-clock measurements from the engine. It is a
// separate, optional interface — not an Event — so wall time can never leak
// into the deterministic event stream: sinks that record events (JSONL,
// MemorySink) do not implement it, while aggregating sinks (Summary) fold the
// observations into histograms only.
type WallObserver interface {
	// ObserveTrainWall records the wall time of one vehicle's training work
	// within one engine tick, in nanoseconds.
	ObserveTrainWall(nanos int64)
}

// ShardScan describes one shard's share of a sharded encounter scan: how
// many vehicles it owned, how many halo copies it imported from neighboring
// regions, and how many radio-range pairs it emitted.
type ShardScan struct {
	// Shard is the shard's index; Shards is the run's shard count.
	Shard, Shards int
	// Locals, Guests, and Pairs are the shard's population and output sizes.
	Locals, Guests, Pairs int
}

// ShardObserver receives per-shard scan statistics from the engine. Like
// WallObserver it is a separate, optional interface — not an Event — so
// shard topology can never leak into the deterministic event stream, which
// stays byte-identical across shard counts.
type ShardObserver interface {
	// ObserveShardScan records one shard's share of one encounter scan.
	ObserveShardScan(scan ShardScan)
}

// TraceChunk describes one streaming-trace window operation: a chunk load,
// evict, or prefetch issue, with the window's resident chunk count after
// the operation.
type TraceChunk struct {
	// Op is "load", "evict", or "prefetch".
	Op string
	// Chunk is the chunk's index in the stream; Ticks its tick count.
	Chunk, Ticks int
	// Resident is the retained chunk count after the operation.
	Resident int
	// Depth is the adaptive prefetch depth in effect at the operation.
	Depth int
	// Retries counts transport-level retries the chunk's fetch needed
	// (loads from a remote chunk source; zero locally).
	Retries int
	// WaitNs is how long the window's Advance blocked waiting for this
	// chunk's fetch (loads only); zero means the prefetcher hid it.
	WaitNs int64
}

// TraceObserver receives streaming-trace chunk operations from the engine.
// Like the other side channels it is a separate, optional interface — not
// an Event — so streamed and resident runs produce byte-identical event
// streams even though only one of them loads and evicts chunks.
type TraceObserver interface {
	// ObserveTraceChunk records one window chunk operation.
	ObserveTraceChunk(op TraceChunk)
}

// CoresetRefresh describes one incremental coreset refresh: how many
// partition-tree leaves were rebuilt vs served from cache, and how many
// merge nodes were recomputed on the dirty leaves' root paths.
type CoresetRefresh struct {
	// Vehicle is the refreshing vehicle's ID.
	Vehicle int
	// LeavesRebuilt and LeavesCached partition the tree's leaves at this
	// refresh.
	LeavesRebuilt, LeavesCached int
	// TreeMerges counts the merge-and-reduce nodes recomputed.
	TreeMerges int
}

// CoresetObserver receives incremental-refresh statistics from the engine.
// Like the other side channels it is a separate, optional interface — not an
// Event — so cache behavior can never leak into the deterministic event
// stream: the full-rebuild and incremental arms emit the same CoresetRebuilt
// events even though only one of them has leaves to cache.
type CoresetObserver interface {
	// ObserveCoresetRefresh records one incremental coreset refresh.
	ObserveCoresetRefresh(r CoresetRefresh)
}

// SchedTick describes one engine tick's due-vehicle scheduling work: how
// many vehicles the calendar queue dequeued as due, how many wheel buckets
// the pop examined, and how many shard-major batches the tick's per-vehicle
// phases dispatched (zero when the run is unsharded or the phase was empty).
type SchedTick struct {
	// DueDequeued is the number of due vehicles the calendar queue popped.
	DueDequeued int
	// BucketsTouched is the number of tick-wheel buckets the pop examined.
	BucketsTouched int
	// ShardBatches is the number of shard-grouped work batches dispatched.
	ShardBatches int
}

// SchedObserver receives due-time scheduling statistics from the engine.
// Like the other side channels it is a separate, optional interface — not an
// Event — so scheduler internals (how many buckets a pop touched, how a tick
// was batched) can never leak into the deterministic event stream.
type SchedObserver interface {
	// ObserveSchedTick records one tick's scheduling work.
	ObserveSchedTick(s SchedTick)
}

// MemorySink buffers every event in memory: the test sink, and the per-run
// buffer the experiment harness uses to serialize concurrent runs into one
// output stream.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Emit implements Sink.
func (m *MemorySink) Emit(ev Event) {
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
}

// Close implements Sink (no-op).
func (m *MemorySink) Close() error { return nil }

// Events returns the recorded events in emission order.
func (m *MemorySink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// Len returns the number of recorded events.
func (m *MemorySink) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.events)
}

// Drain replays the recorded events into dst in order and empties the sink.
func (m *MemorySink) Drain(dst Sink) {
	m.mu.Lock()
	events := m.events
	m.events = nil
	m.mu.Unlock()
	for _, ev := range events {
		dst.Emit(ev)
	}
}

// multiSink fans events (and side-channel observations) out to several
// sinks.
type multiSink struct {
	sinks    []Sink
	walls    []WallObserver
	shards   []ShardObserver
	traces   []TraceObserver
	coresets []CoresetObserver
	scheds   []SchedObserver
}

// Tee returns a sink that forwards every event to all given sinks (nils are
// skipped). Wall observations are forwarded to the members that accept them.
// A single non-nil sink is returned unwrapped.
func Tee(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	m := &multiSink{sinks: live}
	for _, s := range live {
		if w, ok := s.(WallObserver); ok {
			m.walls = append(m.walls, w)
		}
		if o, ok := s.(ShardObserver); ok {
			m.shards = append(m.shards, o)
		}
		if o, ok := s.(TraceObserver); ok {
			m.traces = append(m.traces, o)
		}
		if o, ok := s.(CoresetObserver); ok {
			m.coresets = append(m.coresets, o)
		}
		if o, ok := s.(SchedObserver); ok {
			m.scheds = append(m.scheds, o)
		}
	}
	return m
}

// Emit implements Sink.
func (m *multiSink) Emit(ev Event) {
	for _, s := range m.sinks {
		s.Emit(ev)
	}
}

// ObserveTrainWall implements WallObserver.
func (m *multiSink) ObserveTrainWall(nanos int64) {
	for _, w := range m.walls {
		w.ObserveTrainWall(nanos)
	}
}

// ObserveShardScan implements ShardObserver.
func (m *multiSink) ObserveShardScan(scan ShardScan) {
	for _, o := range m.shards {
		o.ObserveShardScan(scan)
	}
}

// ObserveTraceChunk implements TraceObserver.
func (m *multiSink) ObserveTraceChunk(op TraceChunk) {
	for _, o := range m.traces {
		o.ObserveTraceChunk(op)
	}
}

// ObserveCoresetRefresh implements CoresetObserver.
func (m *multiSink) ObserveCoresetRefresh(r CoresetRefresh) {
	for _, o := range m.coresets {
		o.ObserveCoresetRefresh(r)
	}
}

// ObserveSchedTick implements SchedObserver.
func (m *multiSink) ObserveSchedTick(s SchedTick) {
	for _, o := range m.scheds {
		o.ObserveSchedTick(s)
	}
}

// Close implements Sink: closes every member, returning the first error.
func (m *multiSink) Close() error {
	var first error
	for _, s := range m.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
