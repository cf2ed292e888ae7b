package trace

import (
	"fmt"
	"io"
	"math"
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

// prefetchBudget bounds the adaptive readahead: the window never keeps more
// than this many chunk fetches in flight, no matter what the observed fetch
// latency asks for. Chosen so a worst-case prefetch pipeline stays a small
// multiple of the retained window itself.
const prefetchBudget = 8

// WindowConfig configures a sliding window. Its retained span starts at
// the package defaults (30 s behind the cursor, 150 s ahead); consumers
// widen it to their lookahead with Reserve.
type WindowConfig struct {
	// Prefetch reads chunks past the leading edge on background
	// goroutines so a steady-state Advance rarely blocks on fetch or
	// decode. The readahead depth adapts to the observed cursor rate and
	// chunk fetch latency (see DESIGN.md §12), clamped by a fixed budget.
	// It never changes results or the telemetry event stream — chunk
	// operations are reported through the side-channel observer only, and
	// always from the Advance goroutine.
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
// observer: which chunk, how many ticks it covers, how many chunks the
// window retains after the operation, and — for loads and prefetch issues —
// how the adaptive fetch pipeline behaved.
type ChunkOp struct {
	Kind     ChunkOpKind
	Chunk    int
	Ticks    int
	Resident int
	// Depth is the prefetch depth in effect when the operation happened
	// (1 when prefetch is off).
	Depth int
	// Retries counts transport-level retries the chunk's fetch needed
	// (loads only; always zero for local sources).
	Retries int
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

// ChunkError annotates a chunk fetch or decode failure with its stream
// position so mid-stream corruption (or a failing chunk server) reports
// where the trace broke, not just how.
type ChunkError struct {
	// Chunk is the chunk index in the stream; FirstTick the first tick it
	// covers.
	Chunk, FirstTick int
	// Err is the underlying fetch or decode error.
	Err error
}

func (e *ChunkError) Error() string {
	return fmt.Sprintf("trace: chunk %d (first tick %d): %v", e.Chunk, e.FirstTick, e.Err)
}

func (e *ChunkError) Unwrap() error { return e.Err }

// fetchResult carries a background chunk fetch back to Advance.
type fetchResult struct {
	pts     []geom.Point
	ticks   int
	retries int
	latency time.Duration
	err     error
}

// ewmaAlpha weighs new fetch-latency and cursor-rate samples; high enough
// to track a phase change within a few chunks, low enough not to thrash on
// one slow fetch.
const ewmaAlpha = 0.3

// Window is a bounded sliding-window Source over a ChunkSource: it keeps
// only the chunks covering the retained span around the cursor, evicting
// behind it and loading (or prefetching) ahead, so a full co-simulation's
// trace working set is O(window) chunks regardless of trace length — and
// regardless of whether chunks come from a local file or a remote chunk
// server (internal/traceserve).
//
// The cursor moves forward only: Advance must be called with
// non-decreasing ticks, and lookups outside the retained span panic with
// *WindowViolation. Window methods are not safe for concurrent use — the
// engine reads positions only from its serial tick phases, which is what
// makes the single-goroutine contract (plus the internal prefetch
// handshake) sound.
type Window struct {
	src        ChunkSource
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
	lo       int // first retained chunk index
	next     int // next chunk index Advance will deliver; retained = [lo, next)
	issued   int // next chunk index the prefetcher will issue; inflight = [next, issued)
	chunks   [][]geom.Point
	free     [][]geom.Point
	inflight map[int]chan fetchResult
	onOp     func(ChunkOp)
	err      error // sticky load error; poisons the window

	// Adaptive-depth state: the prefetch depth is re-derived every Advance
	// from the observed cursor rate (ticks/s of wall time, stall time
	// excluded) and chunk fetch latency, then clamped by prefetchBudget.
	depth       int
	latEWMA     float64 // seconds per chunk fetch
	rateEWMA    float64 // cursor ticks per wall second
	lastAdv     time.Time
	lastAdvTick int
	stallNs     int64         // fetch-wait time since the last rate sample
	stalled     bool          // a load blocked since the last depth update
	crossedSeam bool          // a chunk was loaded since the last depth update
	lastWait    time.Duration // most recent load's blocking time
}

// NewWindowSource wraps a random-access ChunkSource in a sliding window.
// The source's total tick count sizes the window's chunk arithmetic.
func NewWindowSource(src ChunkSource, cfg WindowConfig) *Window {
	w := &Window{
		src:        src,
		totalTicks: src.NumTicks(),
		dt:         src.DT(),
		vehicles:   src.NumVehicles(),
		chunkTicks: src.ChunkTicks(),
		prefetch:   cfg.Prefetch,
		depth:      1,
		inflight:   make(map[int]chan fetchResult),
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
	if w.prefetch {
		w.observeRate(tick)
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
		w.updateDepth()
		w.issuePrefetches()
	}
	return nil
}

// observeRate folds the cursor's advance rate (ticks per wall second,
// excluding time spent blocked on fetches) into its EWMA. Wall time feeds
// only the prefetch depth — results and the telemetry event stream are
// identical no matter what the clock says.
func (w *Window) observeRate(tick int) {
	now := time.Now()
	if !w.lastAdv.IsZero() && tick > w.lastAdvTick {
		elapsed := now.Sub(w.lastAdv) - time.Duration(w.stallNs)
		if elapsed > 0 {
			rate := float64(tick-w.lastAdvTick) / elapsed.Seconds()
			if w.rateEWMA == 0 {
				w.rateEWMA = rate
			} else {
				w.rateEWMA += ewmaAlpha * (rate - w.rateEWMA)
			}
		}
		w.lastAdv, w.lastAdvTick, w.stallNs = now, tick, 0
	} else if w.lastAdv.IsZero() {
		w.lastAdv, w.lastAdvTick = now, tick
	}
}

// observeLatency folds one fetch-latency sample into its EWMA.
func (w *Window) observeLatency(d time.Duration) {
	s := d.Seconds()
	if w.latEWMA == 0 {
		w.latEWMA = s
	} else {
		w.latEWMA += ewmaAlpha * (s - w.latEWMA)
	}
}

// updateDepth re-derives the adaptive readahead depth: enough in-flight
// fetches to cover the chunks the cursor will cross during one fetch
// latency (latency × rate / chunkTicks), plus one for the seam in
// progress; bumped past the current depth whenever a load still blocked,
// and clamped to [1, prefetchBudget].
func (w *Window) updateDepth() {
	target := 1
	if w.latEWMA > 0 && w.rateEWMA > 0 {
		target = 1 + int(math.Ceil(w.latEWMA*w.rateEWMA/float64(w.chunkTicks)))
	}
	if w.stalled {
		if t := w.depth + 1; t > target {
			target = t
		}
		w.stalled = false
	}
	// Grow to the target at once, but decay at most one step per chunk
	// crossed: Advance runs every tick, so letting each of the hundreds of
	// intra-chunk updates step the depth down would collapse the pipeline
	// microseconds after one fast rate sample. A too-deep readahead wastes
	// a little memory; a too-shallow one stalls the cursor for a full
	// fetch latency.
	if target < w.depth {
		if w.crossedSeam {
			target = w.depth - 1
		} else {
			target = w.depth
		}
	}
	w.crossedSeam = false
	if target > prefetchBudget {
		target = prefetchBudget
	}
	if target < 1 {
		target = 1
	}
	w.depth = target
}

// loadNext appends chunk w.next to the retained window, absorbing its
// in-flight prefetch if one was issued, or fetching synchronously.
func (w *Window) loadNext() error {
	idx := w.next
	var res fetchResult
	if ch, ok := w.inflight[idx]; ok {
		start := time.Now()
		res = <-ch
		wait := time.Since(start)
		delete(w.inflight, idx)
		// res.latency keeps the goroutine's full fetch duration: the depth
		// target must plan for what a fetch truly costs, not for the wait a
		// lucky prefetch happened to hide — feeding hidden (near-zero) waits
		// into the EWMA collapses the depth and reintroduces the stalls.
		w.noteWait(wait)
	} else {
		start := time.Now()
		cf, err := w.src.ReadChunk(idx, w.grabBuf(idx))
		res = fetchResult{pts: cf.Pts, ticks: cf.Ticks, retries: cf.Retries, err: err, latency: time.Since(start)}
		w.noteWait(res.latency)
	}
	if res.err != nil {
		return &ChunkError{Chunk: idx, FirstTick: idx * w.chunkTicks, Err: res.err}
	}
	if err := checkChunk(res.ticks, res.pts, w.ticksIn(idx), w.vehicles); err != nil {
		return &ChunkError{Chunk: idx, FirstTick: idx * w.chunkTicks, Err: err}
	}
	w.observeLatency(res.latency)
	w.chunks = append(w.chunks, res.pts)
	w.next++
	if w.issued < w.next {
		w.issued = w.next
	}
	w.crossedSeam = true
	w.emit(ChunkOp{Kind: OpLoad, Chunk: idx, Ticks: w.ticksIn(idx), Resident: len(w.chunks),
		Depth: w.depth, Retries: res.retries, WaitNs: w.lastWaitNs()})
	return nil
}

// noteWait records time Advance spent blocked on a fetch, feeding the
// stall accounting that keeps the rate EWMA honest and the depth bump.
func (w *Window) noteWait(d time.Duration) {
	w.lastWait = d
	if d <= 0 {
		return
	}
	w.stallNs += d.Nanoseconds()
	w.stalled = true
}

// lastWait is the most recent load's blocking time, surfaced on its
// ChunkOp.
func (w *Window) lastWaitNs() int64 { return w.lastWait.Nanoseconds() }

// evictFront recycles the oldest retained chunk.
func (w *Window) evictFront() {
	idx := w.lo
	buf := w.chunks[0]
	copy(w.chunks, w.chunks[1:])
	w.chunks = w.chunks[:len(w.chunks)-1]
	w.free = append(w.free, buf)
	w.lo++
	w.emit(ChunkOp{Kind: OpEvict, Chunk: idx, Ticks: w.ticksIn(idx), Resident: len(w.chunks), Depth: w.depth})
}

// issuePrefetches tops the fetch pipeline up to the current depth:
// background reads of chunks [issued, …) until depth fetches are in
// flight or the stream ends. Buffers are taken from the free list on this
// goroutine; each background read touches only the ChunkSource and its
// private buffer.
func (w *Window) issuePrefetches() {
	for len(w.inflight) < w.depth && w.issued < w.numChunks {
		idx := w.issued
		buf := w.grabBuf(idx)
		ch := make(chan fetchResult, 1)
		w.inflight[idx] = ch
		w.issued++
		w.emit(ChunkOp{Kind: OpPrefetch, Chunk: idx, Ticks: w.ticksIn(idx), Resident: len(w.chunks), Depth: w.depth})
		go func() {
			start := time.Now()
			cf, err := w.src.ReadChunk(idx, buf)
			ch <- fetchResult{pts: cf.Pts, ticks: cf.Ticks, retries: cf.Retries, err: err, latency: time.Since(start)}
		}()
	}
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

// Close drains outstanding prefetches so no background read races the
// underlying source's teardown. It does not close the source —
// OpenWindowFile's closer owns that.
func (w *Window) Close() error {
	for idx, ch := range w.inflight {
		<-ch
		delete(w.inflight, idx)
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
		panic(&WindowViolation{Tick: tick, Lo: w.lo * w.chunkTicks, Hi: w.next*w.chunkTicks - 1, Cursor: w.cursor})
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
// returned closer owns the file handle (and drains the window's
// prefetches) — close it when the window is done.
func OpenWindowFile(path string, cfg WindowConfig) (*Window, io.Closer, error) {
	src, err := OpenFileSource(path)
	if err != nil {
		return nil, nil, err
	}
	w := NewWindowSource(src, cfg)
	return w, &windowCloser{w: w, src: src}, nil
}

// windowCloser ties a window's prefetch drain to its backing source.
type windowCloser struct {
	w   *Window
	src ChunkSource
}

func (c *windowCloser) Close() error {
	c.w.Close()
	return c.src.Close()
}
