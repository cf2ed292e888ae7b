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

// WindowConfig configures a windowed trace. Its retained span starts at
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

// NewWindowSource returns a windowed trace over a random-access chunk
// source: nothing is retained until the first Advance. The source's total
// tick count sizes the window's chunk arithmetic.
func NewWindowSource(src *IndexedChunkSource, cfg WindowConfig) *Trace {
	tr := &Trace{
		src:        src,
		ticks:      src.NumTicks(),
		dt:         src.DT(),
		vehicles:   src.NumVehicles(),
		chunkTicks: src.ChunkTicks(),
		prefetch:   cfg.Prefetch,
	}
	tr.Reserve(windowBehind, windowAhead)
	return tr
}

// Reserve widens a windowed trace's retained span to at least behind/ahead
// seconds around the cursor (non-positive arguments leave the corresponding
// side alone). It never shrinks the span, so independent consumers can each
// state their own lookahead. On a resident trace it does nothing.
func (tr *Trace) Reserve(behind, ahead float64) {
	if tr.src == nil {
		return
	}
	if t := secondsToTicks(behind, tr.dt); t > tr.behindTicks {
		tr.behindTicks = t
	}
	if t := secondsToTicks(ahead, tr.dt); t > tr.aheadTicks {
		tr.aheadTicks = t
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

// SetChunkObserver installs the side-channel callback a windowed trace
// invokes on every chunk load, evict, and prefetch issue. Calls always
// happen on the goroutine driving Advance, in a deterministic order. A
// resident trace has no chunk traffic and keeps no observer.
func (tr *Trace) SetChunkObserver(fn func(ChunkOp)) {
	if tr.src == nil {
		return
	}
	tr.onOp = fn
}

// Advance moves a windowed trace's cursor to the given tick (clamped to the
// trace extent), loading chunks up to the leading edge and evicting those
// fully behind the trailing edge. The cursor is monotone: moving it
// backward is an error. A chunk fetch failure is returned as a *ChunkError
// and poisons the trace. On a resident trace, which retains every chunk, it
// does nothing.
func (tr *Trace) Advance(tick int) error {
	if tr.src == nil {
		return nil
	}
	if tr.err != nil {
		return tr.err
	}
	if tr.ticks == 0 {
		return nil
	}
	if tick < 0 {
		tick = 0
	}
	if tick >= tr.ticks {
		tick = tr.ticks - 1
	}
	if tr.advanced && tick < tr.cursor {
		return fmt.Errorf("trace: window cursor moved backward to tick %d (cursor at %d)", tick, tr.cursor)
	}
	tr.advanced = true
	tr.cursor = tick

	loTick := tick - tr.behindTicks
	if loTick < 0 {
		loTick = 0
	}
	hiTick := tick + tr.aheadTicks
	if hiTick >= tr.ticks {
		hiTick = tr.ticks - 1
	}
	wantLo, wantHi := loTick/tr.chunkTicks, hiTick/tr.chunkTicks

	for tr.next() <= wantHi {
		if err := tr.loadNext(); err != nil {
			tr.err = err
			return err
		}
	}
	for tr.lo < wantLo && len(tr.chunks) > 0 {
		tr.evictFront()
	}
	if tr.prefetch {
		tr.readAhead()
	}
	return nil
}

// next returns the index of the chunk Advance delivers next, one past the
// last retained chunk.
func (tr *Trace) next() int { return tr.lo + len(tr.chunks) }

// loadNext appends chunk next() to the retained window, taking its
// background read if one is in flight and reading it synchronously
// otherwise. The load's WaitNs is how long Advance blocked either way.
func (tr *Trace) loadNext() error {
	idx := tr.next()
	start := time.Now()
	var res fetchResult
	if tr.ahead != nil {
		res = <-tr.ahead
		tr.ahead = nil
	} else {
		res.pts, res.err = tr.src.ReadChunk(idx, tr.grabBuf(idx))
	}
	wait := time.Since(start)
	if res.err == nil {
		res.err = checkChunk(res.pts, tr.ticksIn(idx), tr.vehicles)
	}
	if res.err != nil {
		return &ChunkError{Chunk: idx, FirstTick: idx * tr.chunkTicks, Err: res.err}
	}
	tr.chunks = append(tr.chunks, res.pts)
	tr.emit(ChunkOp{Kind: OpLoad, Chunk: idx, Ticks: tr.ticksIn(idx), Resident: len(tr.chunks),
		WaitNs: wait.Nanoseconds()})
	return nil
}

// evictFront recycles the oldest retained chunk.
func (tr *Trace) evictFront() {
	idx := tr.lo
	buf := tr.chunks[0]
	copy(tr.chunks, tr.chunks[1:])
	tr.chunks = tr.chunks[:len(tr.chunks)-1]
	tr.free = append(tr.free, buf)
	tr.lo++
	tr.emit(ChunkOp{Kind: OpEvict, Chunk: idx, Ticks: tr.ticksIn(idx), Resident: len(tr.chunks)})
}

// readAhead issues the background read of chunk next() — the one after
// the leading edge — unless one is already in flight or the stream has
// ended. The buffer is taken from the free list on this goroutine; the
// background read touches only the source and its private buffer.
func (tr *Trace) readAhead() {
	idx := tr.next()
	if tr.ahead != nil || idx >= tr.src.NumChunks() {
		return
	}
	buf := tr.grabBuf(idx)
	ch := make(chan fetchResult, 1)
	tr.ahead = ch
	tr.emit(ChunkOp{Kind: OpPrefetch, Chunk: idx, Ticks: tr.ticksIn(idx), Resident: len(tr.chunks)})
	src := tr.src
	go func() {
		pts, err := src.ReadChunk(idx, buf)
		ch <- fetchResult{pts, err}
	}()
}

// grabBuf returns a recycled (or fresh) buffer sized for chunk idx.
func (tr *Trace) grabBuf(idx int) []geom.Point {
	n := tr.ticksIn(idx) * tr.vehicles
	if l := len(tr.free); l > 0 {
		buf := tr.free[l-1]
		tr.free = tr.free[:l-1]
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]geom.Point, n)
}

// ticksIn returns the tick count of chunk idx (the tail chunk may be
// short).
func (tr *Trace) ticksIn(idx int) int {
	return ticksInChunk(idx, tr.ticks, tr.chunkTicks)
}

func (tr *Trace) emit(op ChunkOp) {
	if tr.onOp != nil {
		tr.onOp(op)
	}
}

// Close waits for a windowed trace's background read in flight, if any, so
// it does not race the underlying source's teardown. It does not close the
// source — OpenWindowFile's closer owns that. On a resident trace it does
// nothing.
func (tr *Trace) Close() error {
	if tr.ahead != nil {
		<-tr.ahead
		tr.ahead = nil
	}
	return nil
}

// OpenWindowFile opens an LBTC trace file as a windowed trace over a
// random-access file source (chunk offsets indexed once at open). The
// returned closer owns the file handle (and waits for the window's
// readahead) — close it when the trace is done.
func OpenWindowFile(path string, cfg WindowConfig) (*Trace, io.Closer, error) {
	src, err := OpenFileSource(path)
	if err != nil {
		return nil, nil, err
	}
	w := NewWindowSource(src, cfg)
	return w, &windowCloser{w: w, src: src}, nil
}

// windowCloser ties a window's readahead drain to its backing source.
type windowCloser struct {
	w   *Trace
	src *IndexedChunkSource
}

func (c *windowCloser) Close() error {
	c.w.Close()
	return c.src.Close()
}
