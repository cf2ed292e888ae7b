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
// Construct with New, FromRows, Record, or Load; the zero value is an
// empty trace with an invalid tick interval.
//
// Trace is the trivial whole-trace Source implementation: every tick is
// resident, so Advance is free and At never fails.
type Trace struct {
	dt         float64
	vehicles   int
	chunkTicks int
	ticks      int
	chunks     [][]geom.Point
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
// chunk backing array is allocated every chunkTicks ticks.
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

// NumTicks returns the number of recorded ticks.
func (tr *Trace) NumTicks() int { return tr.ticks }

// NumVehicles returns the vehicle count (0 for an empty trace).
func (tr *Trace) NumVehicles() int {
	if tr.ticks == 0 {
		return 0
	}
	return tr.vehicles
}

// ChunkTicks returns the trace's chunk capacity in ticks.
func (tr *Trace) ChunkTicks() int { return tr.chunkTicks }

// Duration returns the trace's covered time span in seconds.
func (tr *Trace) Duration() float64 { return float64(tr.ticks) * tr.dt }

// Advance is the Source window contract; a resident trace keeps every tick
// loaded, so it is a no-op.
func (tr *Trace) Advance(tick int) error { return nil }

// tickFor clamps a time to the trace extent and snaps it to a tick.
func (tr *Trace) tickFor(t float64) int {
	return clampTick(t, tr.dt, tr.ticks)
}

// clampTick snaps a time to a tick index, clamped to [0, ticks-1]. It is
// the one place this arithmetic lives so every Source implementation snaps
// identically — bit-identical A/B streams depend on it.
func clampTick(t, dt float64, ticks int) int {
	tick := int(t / dt)
	if tick < 0 {
		tick = 0
	}
	if tick >= ticks {
		tick = ticks - 1
	}
	return tick
}

// Row returns the positions of every vehicle at the given tick as one
// contiguous subslice of the backing chunk. Callers must not modify or
// retain it across appends.
func (tr *Trace) Row(tick int) []geom.Point {
	chunk := tr.chunks[tick/tr.chunkTicks]
	off := (tick % tr.chunkTicks) * tr.vehicles
	return chunk[off : off+tr.vehicles]
}

// RowAt is Row addressed by time (clamped to the trace extent, snapped to
// the nearest tick), mirroring At.
func (tr *Trace) RowAt(t float64) []geom.Point {
	if tr.ticks == 0 {
		return nil
	}
	return tr.Row(tr.tickFor(t))
}

// At returns the position of vehicle v at time t (clamped to the trace
// extent, snapped to the nearest tick).
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
// commRange starting from time t, by replaying their shared future routes
// (the paper's vehicles exchange their next-few-minutes routes from the
// navigation service). The estimate is capped at horizon seconds.
func (tr *Trace) ContactDuration(a, b int, t, commRange, horizon float64) float64 {
	return sourceContactDuration(tr, a, b, t, commRange, horizon)
}

// Validate performs basic structural checks. The columnar layout makes
// ragged ticks unconstructible through the API, so the remaining checks are
// on the scalar invariants.
func (tr *Trace) Validate() error {
	if tr.dt <= 0 {
		return fmt.Errorf("trace: non-positive tick interval %g", tr.dt)
	}
	if tr.ticks > 0 && tr.chunkTicks <= 0 {
		return fmt.Errorf("trace: non-positive chunk capacity %d", tr.chunkTicks)
	}
	for c, chunk := range tr.chunks {
		want := tr.chunkTicks * tr.vehicles
		if c == len(tr.chunks)-1 {
			if rem := tr.ticks - c*tr.chunkTicks; rem < tr.chunkTicks {
				want = rem * tr.vehicles
			}
		}
		if len(chunk) != want {
			return fmt.Errorf("trace: chunk %d holds %d positions, expected %d", c, len(chunk), want)
		}
	}
	return nil
}
