package trace

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"lbchat/internal/geom"
)

// windowOver encodes tr and reopens it as a sliding window with the given
// config.
func windowOver(t *testing.T, tr *Trace, cfg WindowConfig) *Window {
	t.Helper()
	src, err := NewBytesSource(encodeTrace(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	return NewWindowSource(src, cfg)
}

// narrow sets w's retained span to behind and ahead seconds around the
// cursor. It goes below the package defaults, which Reserve only widens, so
// short test traces reach eviction and the window's leading edge.
func narrow(w *Window, behind, ahead float64) *Window {
	w.behindTicks, w.aheadTicks = secondsToTicks(behind, w.dt), secondsToTicks(ahead, w.dt)
	return w
}

// syntheticTrace builds a deterministic trace with distinct per-(tick,
// vehicle) coordinates so any misaligned read is caught by value.
func syntheticTrace(dt float64, vehicles, ticks, chunkTicks int) *Trace {
	tr := NewChunked(dt, vehicles, chunkTicks)
	for tick := 0; tick < ticks; tick++ {
		row := tr.AppendRow()
		for v := range row {
			row[v] = geom.Point{X: float64(tick*1000 + v), Y: float64(tick) - 0.25*float64(v)}
		}
	}
	return tr
}

// TestWindowMatchesResident is the window-contract property test: for a
// cursor swept over every tick, Window.At/Row/Distance/ContactDuration
// must equal the resident trace for every time reachable under the
// reserved span — the exact guarantee the engine relies on for byte-
// identical streamed runs.
func TestWindowMatchesResident(t *testing.T) {
	const (
		dt       = 0.5
		vehicles = 3
		ticks    = 90
		behind   = 4.0 // seconds
		ahead    = 10.0
	)
	for _, chunkTicks := range []int{4, 7, 32} {
		tr := syntheticTrace(dt, vehicles, ticks, chunkTicks)
		w := narrow(windowOver(t, tr, WindowConfig{}), behind, ahead)
		if w.NumTicks() != ticks || w.NumVehicles() != vehicles || w.Duration() != tr.Duration() {
			t.Fatalf("chunkTicks=%d: window shape %d×%d over %gs", chunkTicks, w.NumTicks(), w.NumVehicles(), w.Duration())
		}
		for cursor := 0; cursor < ticks; cursor++ {
			if err := w.Advance(cursor); err != nil {
				t.Fatalf("chunkTicks=%d: Advance(%d): %v", chunkTicks, cursor, err)
			}
			now := float64(cursor) * dt
			loTick := cursor - int(behind/dt)
			if loTick < 0 {
				loTick = 0
			}
			hiTick := cursor + int(ahead/dt)
			if hiTick >= ticks {
				hiTick = ticks - 1
			}
			for tick := loTick; tick <= hiTick; tick++ {
				at := float64(tick) * dt
				for v := 0; v < vehicles; v++ {
					if got, want := w.At(v, at), tr.At(v, at); got != want {
						t.Fatalf("chunkTicks=%d cursor=%d: At(%d, %g) = %v, want %v", chunkTicks, cursor, v, at, got, want)
					}
				}
				gotRow, wantRow := w.Row(tick), tr.Row(tick)
				for v := range wantRow {
					if gotRow[v] != wantRow[v] {
						t.Fatalf("chunkTicks=%d cursor=%d: Row(%d)[%d] differs", chunkTicks, cursor, tick, v)
					}
				}
			}
			if got, want := w.Distance(0, 1, now), tr.Distance(0, 1, now); got != want {
				t.Fatalf("chunkTicks=%d cursor=%d: Distance = %v, want %v", chunkTicks, cursor, got, want)
			}
			// ContactDuration reads up to `ahead` seconds past now — the
			// engine's deepest in-window lookahead.
			if got, want := w.ContactDuration(0, 1, now, 1e9, ahead-dt), tr.ContactDuration(0, 1, now, 1e9, ahead-dt); got != want {
				t.Fatalf("chunkTicks=%d cursor=%d: ContactDuration = %v, want %v", chunkTicks, cursor, got, want)
			}
		}
	}
}

// TestWindowPrefetchMatchesSync pins that background prefetch changes
// neither values nor the load/evict sequence.
func TestWindowPrefetchMatchesSync(t *testing.T) {
	tr := syntheticTrace(0.5, 2, 64, 8)
	type rec struct {
		kind  ChunkOpKind
		chunk int
	}
	runOps := func(prefetch bool) (ops []rec) {
		w := narrow(windowOver(t, tr, WindowConfig{Prefetch: prefetch}), 2, 6)
		w.SetChunkObserver(func(op ChunkOp) {
			if op.Kind != OpPrefetch {
				ops = append(ops, rec{op.Kind, op.Chunk})
			}
		})
		for cursor := 0; cursor < tr.NumTicks(); cursor++ {
			if err := w.Advance(cursor); err != nil {
				t.Fatalf("prefetch=%v Advance(%d): %v", prefetch, cursor, err)
			}
			if got, want := w.RowAt(float64(cursor)*0.5), tr.RowAt(float64(cursor)*0.5); got[0] != want[0] {
				t.Fatalf("prefetch=%v cursor=%d: row differs", prefetch, cursor)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return ops
	}
	sync, pre := runOps(false), runOps(true)
	if len(sync) != len(pre) {
		t.Fatalf("op counts differ: sync %d, prefetch %d", len(sync), len(pre))
	}
	for i := range sync {
		if sync[i] != pre[i] {
			t.Fatalf("op %d differs: sync %+v, prefetch %+v", i, sync[i], pre[i])
		}
	}
}

// TestWindowChunkSeam pins correctness at the default chunk seam: ticks
// 255 and 256 live in different chunks and both must read back exactly.
func TestWindowChunkSeam(t *testing.T) {
	const dt = 0.5
	tr := syntheticTrace(dt, 2, 520, DefaultChunkTicks)
	w := narrow(windowOver(t, tr, WindowConfig{}), 1, 2)
	for _, tick := range []int{0, 254, 255, 256, 257, 511, 512, 519} {
		if err := w.Advance(tick); err != nil {
			t.Fatalf("Advance(%d): %v", tick, err)
		}
		if got, want := w.Row(tick)[1], tr.Row(tick)[1]; got != want {
			t.Fatalf("tick %d: %v, want %v", tick, got, want)
		}
		if got, want := w.At(0, float64(tick)*dt), tr.At(0, float64(tick)*dt); got != want {
			t.Fatalf("tick %d: At = %v, want %v", tick, got, want)
		}
	}
}

// TestWindowEviction pins the eviction edge: once the cursor passes
// behind+chunk, the oldest chunk is recycled, the resident count stays
// O(window), and reading the evicted tick panics with *WindowViolation.
func TestWindowEviction(t *testing.T) {
	tr := syntheticTrace(1.0, 2, 64, 4) // 16 chunks of 4 ticks
	w := narrow(windowOver(t, tr, WindowConfig{}), 4, 8)
	var evicted []int
	loads, maxResident := 0, 0
	w.SetChunkObserver(func(op ChunkOp) {
		switch op.Kind {
		case OpLoad:
			loads++
		case OpEvict:
			evicted = append(evicted, op.Chunk)
		}
		if op.Resident > maxResident {
			maxResident = op.Resident
		}
	})
	for cursor := 0; cursor < 64; cursor++ {
		if err := w.Advance(cursor); err != nil {
			t.Fatal(err)
		}
	}
	if len(evicted) == 0 {
		t.Fatal("full sweep evicted nothing")
	}
	for i, c := range evicted {
		if c != i {
			t.Fatalf("evictions out of order: %v", evicted)
		}
	}
	// behind(4)+ahead(8) ticks span at most 4 chunks of 4 ticks plus one
	// seam chunk.
	if maxResident > 5 {
		t.Fatalf("resident peaked at %d chunks, window should bound it", maxResident)
	}
	if loads != 16 {
		t.Fatalf("loaded %d chunks, want every chunk exactly once", loads)
	}

	func() {
		defer func() {
			v, ok := recover().(*WindowViolation)
			if !ok {
				t.Fatalf("reading evicted tick: recovered %v, want *WindowViolation", v)
			}
			if v.Tick != 0 {
				t.Fatalf("violation reports tick %d, want 0", v.Tick)
			}
		}()
		w.Row(0)
	}()
}

// TestWindowViolationAhead pins the strict-window error path on the
// leading edge: a lookup past the reserved span must panic, not silently
// load the rest of the trace.
func TestWindowViolationAhead(t *testing.T) {
	tr := syntheticTrace(1.0, 2, 64, 4)
	w := narrow(windowOver(t, tr, WindowConfig{}), 2, 4)
	if err := w.Advance(0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		v, ok := recover().(*WindowViolation)
		if !ok {
			t.Fatalf("recovered %v, want *WindowViolation", v)
		}
		if v.Tick != 63 || v.Cursor != 0 {
			t.Fatalf("violation = %+v", v)
		}
		if !strings.Contains(v.Error(), "outside retained window") {
			t.Fatalf("violation message %q", v.Error())
		}
	}()
	w.At(0, 63) // clamps to tick 63, far past the 4-second leading edge
}

// TestWindowCursorMonotone pins that the cursor cannot move backward —
// a sequential stream cannot rewind.
func TestWindowCursorMonotone(t *testing.T) {
	tr := syntheticTrace(1.0, 2, 32, 4)
	w := narrow(windowOver(t, tr, WindowConfig{}), 2, 4)
	if err := w.Advance(10); err != nil {
		t.Fatal(err)
	}
	if err := w.Advance(10); err != nil {
		t.Fatalf("re-advancing to the same tick: %v", err)
	}
	if err := w.Advance(9); err == nil {
		t.Fatal("backward Advance accepted")
	}
}

// shrinkingReader is an io.ReaderAt whose backing bytes can be swapped after
// a source has indexed them — a trace file truncated under an open run.
type shrinkingReader struct{ b []byte }

func (r *shrinkingReader) ReadAt(p []byte, off int64) (int, error) {
	return bytes.NewReader(r.b).ReadAt(p, off)
}

// claimedTicks advertises more ticks than its stream holds — a source whose
// metadata outruns its chunks.
type claimedTicks struct {
	ChunkSource
	ticks int
}

func (c claimedTicks) NumTicks() int { return c.ticks }

// TestWindowCorruptionPositioned is the mid-stream corruption fix: whether
// the index scan at open or a chunk fetch during Advance hits the damage,
// the failure must carry the chunk index and first tick, not just the bare
// decode error — and a failure under Advance poisons the window.
func TestWindowCorruptionPositioned(t *testing.T) {
	const (
		vehicles   = 2
		chunkTicks = 4
		ticks      = 16 // 4 full chunks
	)
	good := encodeTrace(t, syntheticTrace(1.0, vehicles, ticks, chunkTicks))
	chunkBytes := 4 + chunkTicks*vehicles*16
	headerLen := streamHeaderLen

	cases := []struct {
		name      string
		open      func(b []byte) (ChunkSource, error)
		wantChunk int
		atOpen    bool
	}{
		{
			name: "oversized chunk length mid-stream",
			open: func(b []byte) (ChunkSource, error) {
				// Chunk 2's length field claims more ticks than capacity:
				// the index scan refuses the stream.
				b[headerLen+2*chunkBytes] = 0xff
				return NewBytesSource(b)
			},
			wantChunk: 2,
			atOpen:    true,
		},
		{
			name: "stream truncated inside chunk body",
			open: func(b []byte) (ChunkSource, error) {
				r := &shrinkingReader{b: b}
				src, err := NewIndexedSource(r, int64(len(b)))
				r.b = b[:headerLen+2*chunkBytes+10]
				return src, err
			},
			wantChunk: 2,
		},
		{
			name: "end marker where chunks remain",
			open: func(b []byte) (ChunkSource, error) {
				// Replace chunk 3's length with the end-of-stream marker: the
				// stream indexes as three chunks while the source still
				// advertises four.
				off := headerLen + 3*chunkBytes
				b[off], b[off+1], b[off+2], b[off+3] = 0, 0, 0, 0
				src, err := NewBytesSource(b[:off+4])
				return claimedTicks{src, ticks}, err
			},
			wantChunk: 3,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, failure := tc.open(append([]byte(nil), good...))
			var w *Window
			if !tc.atOpen {
				if failure != nil {
					t.Fatalf("stream should still index: %v", failure)
				}
				w = narrow(NewWindowSource(src, WindowConfig{}), 2, 2)
				for cursor := 0; cursor < ticks && failure == nil; cursor++ {
					failure = w.Advance(cursor)
				}
				// A resident Load of the same source stops at the same chunk.
				var le *ChunkError
				if _, err := Load(src); !errors.As(err, &le) || le.Chunk != tc.wantChunk {
					t.Errorf("Load: error %v, want a *ChunkError at chunk %d", err, tc.wantChunk)
				}
			}
			if failure == nil {
				t.Fatal("corrupt stream read cleanly")
			}
			var ce *ChunkError
			if !errors.As(failure, &ce) {
				t.Fatalf("error %v is not a *ChunkError", failure)
			}
			if ce.Chunk != tc.wantChunk {
				t.Fatalf("error names chunk %d, want %d: %v", ce.Chunk, tc.wantChunk, failure)
			}
			if ce.FirstTick != tc.wantChunk*chunkTicks {
				t.Fatalf("error names first tick %d, want %d", ce.FirstTick, tc.wantChunk*chunkTicks)
			}
			if w == nil {
				return
			}
			// The window is poisoned: further lookups fail loudly through
			// Window.At with the same positioned error.
			defer func() {
				r := recover()
				var pe *ChunkError
				if err, ok := r.(error); !ok || !errors.As(err, &pe) {
					t.Fatalf("poisoned At recovered %v, want *ChunkError", r)
				}
			}()
			w.At(0, 0)
		})
	}
}

// TestWindowEmptyTrace mirrors resident zero-value semantics.
func TestWindowEmptyTrace(t *testing.T) {
	tr := NewChunked(0.5, 3, 4)
	w := windowOver(t, tr, WindowConfig{})
	if err := w.Advance(0); err != nil {
		t.Fatal(err)
	}
	if w.NumVehicles() != 0 || w.NumTicks() != 0 {
		t.Fatalf("empty window shape %d×%d", w.NumTicks(), w.NumVehicles())
	}
	if got := w.At(0, 5); got != (geom.Point{}) {
		t.Fatalf("empty At = %v", got)
	}
	if w.RowAt(0) != nil {
		t.Fatal("empty RowAt should be nil")
	}
}

// TestOpenWindowFile covers the file-backed path used by the CLIs and the
// experiment harness.
func TestOpenWindowFile(t *testing.T) {
	tr := syntheticTrace(0.5, 2, 40, 8)
	path := t.TempDir() + "/trace.lbtc"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	w, closer, err := OpenWindowFile(path, WindowConfig{Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	narrow(w, 2, 4)
	if w.NumTicks() != 40 || w.NumVehicles() != 2 {
		t.Fatalf("file window shape %d×%d", w.NumTicks(), w.NumVehicles())
	}
	for cursor := 0; cursor < 40; cursor++ {
		if err := w.Advance(cursor); err != nil {
			t.Fatal(err)
		}
		if got, want := w.Row(cursor)[0], tr.Row(cursor)[0]; got != want {
			t.Fatalf("tick %d: %v, want %v", cursor, got, want)
		}
	}
	if _, _, err := OpenWindowFile(path+".missing", WindowConfig{}); err == nil {
		t.Fatal("missing file opened")
	}
}
