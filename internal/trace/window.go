package trace

import (
	"fmt"
	"io"
	"time"

	"lbchat/internal/geom"
)

// Default retained span around the window cursor, in seconds. The engine
// widens the leading side to its actual lookahead (ContactHorizon plus the
// transfer time budget) via Reserve; the defaults only need to cover
// consumers that never call Reserve.
const (
	windowBehind = 30.0
	windowAhead  = 150.0
)

// WindowConfig configures a sliding window. Its retained span starts at
// the package defaults (30 s behind the cursor, 150 s ahead); consumers
// widen it to their lookahead with Reserve.
type WindowConfig struct {
	// Prefetch keeps one chunk read in flight on a background goroutine:
	// the chunk after the leading edge, issued at the end of every Advance
	// that has none pending, so a steady-state Advance rarely blocks on
	// fetch or decode. It never changes results or the telemetry event
	// stream — chunk operations are reported through the side-channel
	// observer only, and always from the Advance goroutine.
	Prefetch bool
}

// ChunkOpKind classifies a window chunk operation.
type ChunkOpKind uint8

const (
	// OpLoad: a chunk was decoded and added to the retained window.
	OpLoad ChunkOpKind = iota
	// OpEvict: a chunk fell behind the trailing edge and was recycled.
	OpEvict
	// OpPrefetch: a background read of an upcoming chunk was issued.
	OpPrefetch
)

// ChunkOp describes one window chunk operation for the side-channel
// observer: which chunk, how many ticks it covers, and how many chunks the
// window retains after the operation.
type ChunkOp struct {
	Kind     ChunkOpKind
	Chunk    int
	Ticks    int
	Resident int
	// WaitNs is how long Advance blocked waiting for this chunk's fetch
	// (loads only): zero means the prefetcher fully hid the fetch.
	WaitNs int64
}

// WindowViolation is the panic value raised when a lookup reaches outside
// the retained window — the strict-window error path. It means the
// consumer's Reserve span does not cover its actual lookahead (or it
// forgot to Advance), which must fail loudly instead of silently loading
// the trace resident.
type WindowViolation struct {
	// Tick is the out-of-window tick that was requested; Lo and Hi bound
	// the retained ticks and Cursor is the last Advance position.
	Tick, Lo, Hi, Cursor int
}

func (v *WindowViolation) Error() string {
	return fmt.Sprintf("trace: tick %d outside retained window [%d, %d] (cursor at tick %d)",
		v.Tick, v.Lo, v.Hi, v.Cursor)
}

// ChunkError annotates a chunk read or decode failure with its stream
// position so mid-stream corruption reports where the trace broke, not just
// how.
type ChunkError struct {
	// Chunk is the chunk index in the stream; FirstTick the first tick it
	// covers.
	Chunk, FirstTick int
	// Err is the underlying read or decode error.
	Err error
}

func (e *ChunkError) Error() string {
	return fmt.Sprintf("trace: chunk %d (first tick %d): %v", e.Chunk, e.FirstTick, e.Err)
}

func (e *ChunkError) Unwrap() error { return e.Err }

// fetchResult carries a background chunk read back to Advance.
type fetchResult struct {
	pts []geom.Point
	err error
}

// Window is a bounded sliding-window Source over an IndexedChunkSource: it
// keeps only the chunks covering the retained span around the cursor,
// evicting behind it and loading (or prefetching) ahead, so a full
// co-simulation's trace working set is O(window) chunks regardless of trace
// length.
//
// The cursor moves forward only: Advance must be called with
// non-decreasing ticks, and lookups outside the retained span panic with
// *WindowViolation. Window methods are not safe for concurrent use — the
// engine reads positions only from its serial tick phases, which is what
// makes the single-goroutine contract (plus the internal prefetch
// handshake) sound.
type Window struct {
	src        *IndexedChunkSource
	totalTicks int
	dt         float64
	vehicles   int
	chunkTicks int
	numChunks  int

	behindTicks int
	aheadTicks  int
	prefetch    bool

	advanced bool
	cursor   int
	lo       int              // first retained chunk index
	next     int              // next chunk index Advance will deliver; retained = [lo, next)
	ahead    chan fetchResult // the background read of chunk next; nil when none is in flight
	chunks   [][]geom.Point
	free     [][]geom.Point
	onOp     func(ChunkOp)
	err      error // sticky load error; poisons the window
}

// NewWindowSource wraps a random-access chunk source in a sliding window.
// The source's total tick count sizes the window's chunk arithmetic.
func NewWindowSource(src *IndexedChunkSource, cfg WindowConfig) *Window {
	w := &Window{
		src:        src,
		totalTicks: src.NumTicks(),
		dt:         src.DT(),
		vehicles:   src.NumVehicles(),
		chunkTicks: src.ChunkTicks(),
		prefetch:   cfg.Prefetch,
	}
	w.numChunks = NumChunks(w.totalTicks, w.chunkTicks)
	w.Reserve(windowBehind, windowAhead)
	return w
}

// DT returns the tick interval in seconds.
func (w *Window) DT() float64 { return w.dt }

// NumTicks returns the underlying trace's total tick count.
func (w *Window) NumTicks() int { return w.totalTicks }

// NumVehicles returns the vehicle count (0 for an empty trace).
func (w *Window) NumVehicles() int {
	if w.totalTicks == 0 {
		return 0
	}
	return w.vehicles
}

// ChunkTicks returns the stream's chunk capacity in ticks.
func (w *Window) ChunkTicks() int { return w.chunkTicks }

// Duration returns the trace's covered time span in seconds.
func (w *Window) Duration() float64 { return float64(w.totalTicks) * w.dt }

// Reserve widens the retained span to at least behind/ahead seconds around
// the cursor (non-positive arguments leave the corresponding side alone).
// It never shrinks the span, so independent consumers can each state their
// own lookahead.
func (w *Window) Reserve(behind, ahead float64) {
	if t := secondsToTicks(behind, w.dt); t > w.behindTicks {
		w.behindTicks = t
	}
	if t := secondsToTicks(ahead, w.dt); t > w.aheadTicks {
		w.aheadTicks = t
	}
}

// secondsToTicks converts a span to whole ticks, rounding up.
func secondsToTicks(s, dt float64) int {
	if s <= 0 || dt <= 0 {
		return 0
	}
	t := int(s / dt)
	if float64(t)*dt < s {
		t++
	}
	return t
}

// SetChunkObserver installs the side-channel callback invoked on every
// chunk load, evict, and prefetch issue. Calls always happen on the
// goroutine driving Advance, in a deterministic order.
func (w *Window) SetChunkObserver(fn func(ChunkOp)) { w.onOp = fn }

// Advance moves the cursor to the given tick (clamped to the trace
// extent), loading chunks up to the leading edge and evicting those fully
// behind the trailing edge. The cursor is monotone: moving it backward is
// an error. A chunk fetch failure is returned as a *ChunkError and
// poisons the window.
func (w *Window) Advance(tick int) error {
	if w.err != nil {
		return w.err
	}
	if w.totalTicks == 0 {
		return nil
	}
	if tick < 0 {
		tick = 0
	}
	if tick >= w.totalTicks {
		tick = w.totalTicks - 1
	}
	if w.advanced && tick < w.cursor {
		return fmt.Errorf("trace: window cursor moved backward to tick %d (cursor at %d)", tick, w.cursor)
	}
	w.advanced = true
	w.cursor = tick

	loTick := tick - w.behindTicks
	if loTick < 0 {
		loTick = 0
	}
	hiTick := tick + w.aheadTicks
	if hiTick >= w.totalTicks {
		hiTick = w.totalTicks - 1
	}
	wantLo, wantHi := loTick/w.chunkTicks, hiTick/w.chunkTicks

	for w.next <= wantHi {
		if err := w.loadNext(); err != nil {
			w.err = err
			return err
		}
	}
	for w.lo < wantLo && w.lo < w.next {
		w.evictFront()
	}
	if w.prefetch {
		w.readAhead()
	}
	return nil
}

// loadNext appends chunk w.next to the retained window, taking its
// background read if one is in flight and reading it synchronously
// otherwise. The load's WaitNs is how long Advance blocked either way.
func (w *Window) loadNext() error {
	idx := w.next
	start := time.Now()
	var res fetchResult
	if w.ahead != nil {
		res = <-w.ahead
		w.ahead = nil
	} else {
		res.pts, res.err = w.src.ReadChunk(idx, w.grabBuf(idx))
	}
	wait := time.Since(start)
	if res.err == nil {
		res.err = checkChunk(res.pts, w.ticksIn(idx), w.vehicles)
	}
	if res.err != nil {
		return &ChunkError{Chunk: idx, FirstTick: idx * w.chunkTicks, Err: res.err}
	}
	w.chunks = append(w.chunks, res.pts)
	w.next++
	w.emit(ChunkOp{Kind: OpLoad, Chunk: idx, Ticks: w.ticksIn(idx), Resident: len(w.chunks),
		WaitNs: wait.Nanoseconds()})
	return nil
}

// evictFront recycles the oldest retained chunk.
func (w *Window) evictFront() {
	idx := w.lo
	buf := w.chunks[0]
	copy(w.chunks, w.chunks[1:])
	w.chunks = w.chunks[:len(w.chunks)-1]
	w.free = append(w.free, buf)
	w.lo++
	w.emit(ChunkOp{Kind: OpEvict, Chunk: idx, Ticks: w.ticksIn(idx), Resident: len(w.chunks)})
}

// readAhead issues the background read of chunk w.next — the one after
// the leading edge — unless one is already in flight or the stream has
// ended. The buffer is taken from the free list on this goroutine; the
// background read touches only the source and its private buffer.
func (w *Window) readAhead() {
	if w.ahead != nil || w.next >= w.numChunks {
		return
	}
	idx := w.next
	buf := w.grabBuf(idx)
	ch := make(chan fetchResult, 1)
	w.ahead = ch
	w.emit(ChunkOp{Kind: OpPrefetch, Chunk: idx, Ticks: w.ticksIn(idx), Resident: len(w.chunks)})
	go func() {
		pts, err := w.src.ReadChunk(idx, buf)
		ch <- fetchResult{pts, err}
	}()
}

// grabBuf returns a recycled (or fresh) buffer sized for chunk idx.
func (w *Window) grabBuf(idx int) []geom.Point {
	n := w.ticksIn(idx) * w.vehicles
	if l := len(w.free); l > 0 {
		buf := w.free[l-1]
		w.free = w.free[:l-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]geom.Point, n)
}

// ticksIn returns the tick count of chunk idx (the tail chunk may be
// short).
func (w *Window) ticksIn(idx int) int {
	return ticksInChunk(idx, w.totalTicks, w.chunkTicks)
}

func (w *Window) emit(op ChunkOp) {
	if w.onOp != nil {
		w.onOp(op)
	}
}

// Close waits for the background read in flight, if any, so it does not
// race the underlying source's teardown. It does not close the source —
// OpenWindowFile's closer owns that.
func (w *Window) Close() error {
	if w.ahead != nil {
		<-w.ahead
		w.ahead = nil
	}
	return nil
}

// Row returns every vehicle's position at the given tick as one contiguous
// slice, valid until the next Advance. Ticks outside the retained window
// panic with *WindowViolation.
func (w *Window) Row(tick int) []geom.Point {
	if w.err != nil {
		panic(w.err)
	}
	c := tick / w.chunkTicks
	if tick < 0 || tick >= w.totalTicks || c < w.lo || c >= w.next {
		hi := min(w.next*w.chunkTicks, w.totalTicks) - 1 // a short tail chunk ends at the trace
		panic(&WindowViolation{Tick: tick, Lo: w.lo * w.chunkTicks, Hi: hi, Cursor: w.cursor})
	}
	chunk := w.chunks[c-w.lo]
	off := (tick - c*w.chunkTicks) * w.vehicles
	return chunk[off : off+w.vehicles]
}

// RowAt is Row addressed by time (clamped to the trace extent, snapped to
// a tick), mirroring the resident trace.
func (w *Window) RowAt(t float64) []geom.Point {
	if w.totalTicks == 0 {
		return nil
	}
	return w.Row(clampTick(t, w.dt, w.totalTicks))
}

// At returns the position of vehicle v at time t (clamped, snapped to a
// tick). The snapped tick must be inside the retained window.
func (w *Window) At(v int, t float64) geom.Point {
	if w.totalTicks == 0 {
		return geom.Point{}
	}
	return w.Row(clampTick(t, w.dt, w.totalTicks))[v]
}

// Distance returns the distance between vehicles a and b at time t.
func (w *Window) Distance(a, b int, t float64) float64 {
	if w.totalTicks == 0 {
		return 0
	}
	row := w.Row(clampTick(t, w.dt, w.totalTicks))
	return row[a].Dist(row[b])
}

// ContactDuration estimates how long vehicles a and b remain within
// commRange from time t, capped at horizon seconds; identical to the
// resident implementation (both delegate to one helper).
func (w *Window) ContactDuration(a, b int, t, commRange, horizon float64) float64 {
	return sourceContactDuration(w, a, b, t, commRange, horizon)
}

// Validate performs basic structural checks on the window's header-derived
// shape.
func (w *Window) Validate() error {
	if w.dt <= 0 {
		return fmt.Errorf("trace: non-positive tick interval %g", w.dt)
	}
	if w.chunkTicks <= 0 {
		return fmt.Errorf("trace: non-positive chunk capacity %d", w.chunkTicks)
	}
	if w.totalTicks > 0 && w.vehicles <= 0 {
		return fmt.Errorf("trace: %d ticks of %d vehicles", w.totalTicks, w.vehicles)
	}
	return nil
}

// OpenWindowFile opens an LBTC trace file as a bounded sliding window over
// a random-access file source (chunk offsets indexed once at open). The
// returned closer owns the file handle (and waits for the window's
// readahead) — close it when the window is done.
func OpenWindowFile(path string, cfg WindowConfig) (*Window, io.Closer, error) {
	src, err := OpenFileSource(path)
	if err != nil {
		return nil, nil, err
	}
	w := NewWindowSource(src, cfg)
	return w, &windowCloser{w: w, src: src}, nil
}

// windowCloser ties a window's readahead drain to its backing source.
type windowCloser struct {
	w   *Window
	src *IndexedChunkSource
}

func (c *windowCloser) Close() error {
	c.w.Close()
	return c.src.Close()
}
