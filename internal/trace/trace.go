package trace

import (
	"fmt"

	"lbchat/internal/geom"
	"lbchat/internal/world"
)

// DefaultChunkTicks is the tick capacity of one columnar chunk. 256 ticks
// of a 10k-vehicle fleet is a 40 MB chunk — big enough that chunk-boundary
// bookkeeping is noise, small enough that a streaming consumer holds only a
// bounded window in memory.
const DefaultChunkTicks = 256

// Trace holds the positions of n vehicles over time at a fixed tick
// interval, stored columnar and chunked: each chunk is one flat
// []geom.Point backing array covering up to chunkTicks ticks, laid out
// row-major ([tick][vehicle]). Appending a tick never allocates a per-tick
// slice — a row is carved out of the current chunk — and a whole tick's
// positions are one contiguous subslice (Row), which is what the engine's
// encounter scans iterate.
//
// A trace retains chunks [lo, lo+len(chunks)) and comes in two residencies:
//
//   - Resident (New, NewChunked, FromRows, Record, Load): no chunk source,
//     every chunk retained. Advance, Reserve and SetChunkObserver return at
//     once and write nothing, so concurrent runs may share one resident
//     value.
//   - Windowed (NewWindowSource, OpenWindowFile): a bounded sliding window
//     over an IndexedChunkSource that retains only the chunks covering
//     [cursor−behind, cursor+ahead], evicting behind and loading (or
//     prefetching) ahead, so a replay's trace working set is O(window)
//     chunks regardless of trace length. Its cursor moves forward only;
//     lookups outside the retained span panic with *WindowViolation. A
//     windowed trace is not safe for concurrent use — the engine reads
//     positions only from its serial tick phases.
//
// The queries (Row, RowAt, At, Distance, ContactDuration) are one code path
// for both, so resident and windowed replays are bit-identical.
//
// The zero value is an empty resident trace with an invalid tick interval.
type Trace struct {
	dt         float64
	vehicles   int
	chunkTicks int
	ticks      int // total tick count, retained or not
	lo         int // index of the first retained chunk
	chunks     [][]geom.Point
	err        error // sticky chunk load error; poisons a windowed trace

	// Windowed only: src is nil on a resident trace.
	src         *IndexedChunkSource
	behindTicks int
	aheadTicks  int
	prefetch    bool
	advanced    bool
	cursor      int
	// ahead is the background read of the chunk after the leading edge;
	// nil when none is in flight.
	ahead chan fetchResult
	free  [][]geom.Point
	onOp  func(ChunkOp)
}

// New returns an empty trace for the given vehicle count and tick interval,
// using the default chunk size.
func New(dt float64, vehicles int) *Trace {
	return NewChunked(dt, vehicles, DefaultChunkTicks)
}

// NewChunked is New with an explicit chunk capacity in ticks (useful in
// tests that exercise chunk boundaries). Non-positive chunkTicks falls back
// to DefaultChunkTicks.
func NewChunked(dt float64, vehicles, chunkTicks int) *Trace {
	if chunkTicks <= 0 {
		chunkTicks = DefaultChunkTicks
	}
	if vehicles < 0 {
		vehicles = 0
	}
	return &Trace{dt: dt, vehicles: vehicles, chunkTicks: chunkTicks}
}

// FromRows builds a trace from per-tick position rows (all rows must share
// one length). It is the replacement for constructing the old struct
// literal with a [][]geom.Point.
func FromRows(dt float64, rows [][]geom.Point) *Trace {
	vehicles := 0
	if len(rows) > 0 {
		vehicles = len(rows[0])
	}
	tr := New(dt, vehicles)
	for _, row := range rows {
		if len(row) != vehicles {
			panic(fmt.Sprintf("trace: ragged row of %d positions, expected %d", len(row), vehicles))
		}
		copy(tr.AppendRow(), row)
	}
	return tr
}

// AppendRow extends the trace by one tick and returns the new row's backing
// slice (length NumVehicles) for the caller to fill in place. The row lives
// inside the current chunk: steady-state appends allocate nothing, and one
// chunk backing array is allocated every chunkTicks ticks. Only a trace
// built by New or NewChunked grows; a loaded or windowed one is for reading.
func (tr *Trace) AppendRow() []geom.Point {
	inChunk := tr.ticks % tr.chunkTicks
	if inChunk == 0 {
		tr.chunks = append(tr.chunks, make([]geom.Point, 0, tr.chunkTicks*tr.vehicles))
	}
	c := len(tr.chunks) - 1
	chunk := tr.chunks[c][: (inChunk+1)*tr.vehicles : tr.chunkTicks*tr.vehicles]
	tr.chunks[c] = chunk
	tr.ticks++
	return chunk[inChunk*tr.vehicles:]
}

// Record steps the world for ticks intervals of dt seconds, recording expert
// positions each tick. The world is advanced in place.
func Record(w *world.World, ticks int, dt float64) *Trace {
	tr := New(dt, len(w.Experts))
	for t := 0; t < ticks; t++ {
		w.Step(dt)
		row := tr.AppendRow()
		for i, v := range w.Experts {
			row[i] = v.Pos()
		}
	}
	return tr
}

// RecordStream is Record writing through a ChunkWriter instead of building
// a resident trace: identical world stepping, identical positions, but the
// recording's working set is one chunk. The caller owns cw and must Close
// it to flush the tail chunk.
func RecordStream(w *world.World, ticks int, dt float64, cw *ChunkWriter) error {
	for t := 0; t < ticks; t++ {
		w.Step(dt)
		row := cw.AppendRow()
		if row == nil {
			return fmt.Errorf("trace: stream writer failed at tick %d: %w", t, cw.Close())
		}
		for i, v := range w.Experts {
			row[i] = v.Pos()
		}
	}
	return nil
}

// DT returns the tick interval in seconds.
func (tr *Trace) DT() float64 { return tr.dt }

// NumTicks returns the trace's total tick count (retained or not).
func (tr *Trace) NumTicks() int { return tr.ticks }

// NumVehicles returns the vehicle count the trace was built or encoded with,
// whatever its tick count.
func (tr *Trace) NumVehicles() int { return tr.vehicles }

// Duration returns the trace's covered time span in seconds.
func (tr *Trace) Duration() float64 { return float64(tr.ticks) * tr.dt }

// tickFor clamps a time to the trace extent and truncates it to the tick at
// or before it.
func (tr *Trace) tickFor(t float64) int {
	tick := int(t / tr.dt)
	if tick < 0 {
		tick = 0
	}
	if tick >= tr.ticks {
		tick = tr.ticks - 1
	}
	return tick
}

// Row returns the positions of every vehicle at the given tick as one
// contiguous subslice of the backing chunk. Callers must not modify it, nor
// retain it across appends or Advance. A tick outside the retained chunks
// panics with *WindowViolation, and a poisoned windowed trace panics with
// its load error.
func (tr *Trace) Row(tick int) []geom.Point {
	c := tick / tr.chunkTicks
	if tr.err != nil || tick < 0 || tick >= tr.ticks || c < tr.lo || c >= tr.lo+len(tr.chunks) {
		tr.badRow(tick)
	}
	chunk := tr.chunks[c-tr.lo]
	off := (tick - c*tr.chunkTicks) * tr.vehicles
	return chunk[off : off+tr.vehicles]
}

// badRow panics for a Row that cannot be served: with the load error of a
// poisoned trace, or with a *WindowViolation naming the retained ticks.
func (tr *Trace) badRow(tick int) {
	if tr.err != nil {
		panic(tr.err)
	}
	hi := min((tr.lo+len(tr.chunks))*tr.chunkTicks, tr.ticks) - 1 // a short tail chunk ends at the trace
	panic(&WindowViolation{Tick: tick, Lo: tr.lo * tr.chunkTicks, Hi: hi, Cursor: tr.cursor})
}

// RowAt is Row addressed by time (clamped to the trace extent, at the tick
// at or before t), mirroring At.
func (tr *Trace) RowAt(t float64) []geom.Point {
	if tr.ticks == 0 {
		return nil
	}
	return tr.Row(tr.tickFor(t))
}

// At returns the position of vehicle v at time t (clamped to the trace
// extent, at the tick at or before t).
func (tr *Trace) At(v int, t float64) geom.Point {
	if tr.ticks == 0 {
		return geom.Point{}
	}
	return tr.Row(tr.tickFor(t))[v]
}

// Distance returns the distance between vehicles a and b at time t.
func (tr *Trace) Distance(a, b int, t float64) float64 {
	if tr.ticks == 0 {
		return 0
	}
	row := tr.Row(tr.tickFor(t))
	return row[a].Dist(row[b])
}

// ContactDuration estimates how long vehicles a and b will remain within
// commRange starting from time t, by stepping the recorded future trace at
// its tick interval until they part. The paper's vehicles instead predict
// it from the next-few-minutes routes they exchange; ROADMAP item 21
// replaces this perfect foresight with such a route-based predictor. The
// estimate is capped at horizon seconds. It reads up to horizon seconds
// ahead of t, which bounds the span a windowed trace's consumer must
// Reserve.
func (tr *Trace) ContactDuration(a, b int, t, commRange, horizon float64) float64 {
	if tr.Distance(a, b, t) > commRange {
		return 0
	}
	end := t + horizon
	if traceEnd := tr.Duration(); end > traceEnd {
		end = traceEnd
	}
	for u, dt := t, tr.dt; u < end; u += dt {
		if tr.Distance(a, b, u) > commRange {
			return u - t
		}
	}
	return end - t
}

// Validate performs basic structural checks. The columnar layout makes
// ragged ticks unconstructible through the API, so the remaining checks are
// on the scalar invariants and the retained chunks' sizes.
func (tr *Trace) Validate() error {
	if tr.dt <= 0 {
		return fmt.Errorf("trace: non-positive tick interval %g", tr.dt)
	}
	if tr.ticks > 0 && tr.chunkTicks <= 0 {
		return fmt.Errorf("trace: non-positive chunk capacity %d", tr.chunkTicks)
	}
	for c, chunk := range tr.chunks {
		if want := ticksInChunk(tr.lo+c, tr.ticks, tr.chunkTicks) * tr.vehicles; len(chunk) != want {
			return fmt.Errorf("trace: chunk %d holds %d positions, expected %d", tr.lo+c, len(chunk), want)
		}
	}
	return nil
}
