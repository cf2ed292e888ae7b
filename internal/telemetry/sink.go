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

// Observer is the one side channel beside the event stream: named scalar
// measurements that depend on how a run was executed (wall time, chunk
// traffic, leaf caching, calendar work) rather than on what it computed. It
// is a separate, optional interface — not an Event — so none of that can leak
// into the deterministic stream: sinks that record events (JSONL, MemorySink)
// do not implement it, while Summary folds the observations into its
// registry only.
type Observer interface {
	// Observe records one measurement under a canonical metric name (the M*
	// constants).
	Observe(name string, value float64)
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

// multiSink fans events out to several sinks.
type multiSink struct {
	sinks []Sink
}

// observingSink is a multiSink with at least one member that takes
// side-channel observations.
type observingSink struct {
	multiSink
	observers []Observer
}

// Tee returns a sink that forwards every event to all given sinks (nils are
// skipped). It implements Observer, forwarding to the members that do, only
// when some member does. A single non-nil sink is returned unwrapped.
func Tee(sinks ...Sink) Sink {
	var live []Sink
	var observers []Observer
	for _, s := range sinks {
		if s == nil {
			continue
		}
		live = append(live, s)
		if o, ok := s.(Observer); ok {
			observers = append(observers, o)
		}
	}
	switch {
	case len(live) == 0:
		return nil
	case len(live) == 1:
		return live[0]
	case len(observers) == 0:
		return &multiSink{sinks: live}
	}
	return &observingSink{multiSink{sinks: live}, observers}
}

// Emit implements Sink.
func (m *multiSink) Emit(ev Event) {
	for _, s := range m.sinks {
		s.Emit(ev)
	}
}

// Observe implements Observer.
func (m *observingSink) Observe(name string, value float64) {
	for _, o := range m.observers {
		o.Observe(name, value)
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
