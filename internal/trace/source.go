package trace

import "lbchat/internal/geom"

// Source is the engine-facing mobility-trace API. It abstracts over the
// resident columnar *Trace and the bounded sliding *Window so the engine,
// the experiment harness, and the CLIs never depend on how much of the
// trace is in memory.
//
// Window contract: before reading around time t, the consumer calls
// Advance(tick) with tick = the cursor's tick index, monotonically
// non-decreasing. After Advance(k), lookups are guaranteed only for times
// inside the retained span around tick k (for a resident Trace that span is
// the whole trace; for a Window it is [k−behind, k+ahead], sized via
// Reserve). Reading outside the span is a programming error and panics with
// *WindowViolation rather than silently loading the trace resident.
//
// All implementations must produce bit-identical results for in-window
// queries: same clamping, same iteration order, same float operations.
type Source interface {
	// DT returns the tick interval in seconds.
	DT() float64
	// NumTicks returns the total tick count of the underlying trace
	// (not the retained window).
	NumTicks() int
	// NumVehicles returns the vehicle count (0 for an empty trace).
	NumVehicles() int
	// Duration returns the covered time span in seconds.
	Duration() float64

	// Advance moves the window cursor to the given tick, loading and
	// evicting chunks as needed. Ticks outside [0, NumTicks) are clamped.
	// A failed load (e.g. a corrupt chunk) is returned annotated with the
	// chunk index and first tick, and poisons the source.
	Advance(tick int) error

	// Row returns every vehicle's position at the given tick as one
	// contiguous slice, valid until the next Advance. The tick must be
	// inside the retained window.
	Row(tick int) []geom.Point
	// RowAt is Row addressed by time (clamped, snapped to a tick).
	RowAt(t float64) []geom.Point
	// At returns the position of vehicle v at time t (clamped, snapped).
	At(v int, t float64) geom.Point
	// Distance returns the distance between vehicles a and b at time t.
	Distance(a, b int, t float64) float64
	// ContactDuration estimates how long a and b remain within commRange
	// from time t, capped at horizon seconds. It reads up to horizon
	// seconds ahead of t, which bounds the window span a consumer must
	// Reserve.
	ContactDuration(a, b int, t, commRange, horizon float64) float64

	// Validate performs structural sanity checks.
	Validate() error
}

// Windowed is the capability interface of bounded sources: consumers
// widen the retained span to their actual lookahead before the first
// Advance, and may observe chunk traffic through a side channel. Reserve
// only ever grows the span — the engine reserves ContactHorizon+TimeBudget
// ahead, and a caller with deeper lookahead can reserve more.
type Windowed interface {
	Source
	// Reserve widens the retained span to at least behind seconds before
	// and ahead seconds after the cursor. Non-positive arguments leave the
	// corresponding side unchanged.
	Reserve(behind, ahead float64)
	// SetChunkObserver installs a callback invoked on every chunk load,
	// evict, and prefetch issue, always from the goroutine driving
	// Advance.
	SetChunkObserver(fn func(ChunkOp))
}

// Compile-time conformance: the resident trace and the sliding window are
// the two Source implementations.
var (
	_ Source   = (*Trace)(nil)
	_ Windowed = (*Window)(nil)
)

// sourceContactDuration is the shared derived-query implementation. Trace
// and Window both delegate here so the float operations and iteration order
// are literally the same code — the A/B byte-identical telemetry guarantee
// rests on that.
func sourceContactDuration(s Source, a, b int, t, commRange, horizon float64) float64 {
	if s.Distance(a, b, t) > commRange {
		return 0
	}
	end := t + horizon
	if traceEnd := s.Duration(); end > traceEnd {
		end = traceEnd
	}
	for u, dt := t, s.DT(); u < end; u += dt {
		if s.Distance(a, b, u) > commRange {
			return u - t
		}
	}
	return end - t
}
