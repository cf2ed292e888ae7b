package trace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"lbchat/internal/geom"
)

// encodeTrace returns tr as LBTC stream bytes.
func encodeTrace(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIndexedSourceMatchesResident reads every chunk of an indexed source —
// out of order and concurrently — and checks each decoded position against
// the resident trace.
func TestIndexedSourceMatchesResident(t *testing.T) {
	const (
		vehicles   = 3
		ticks      = 90
		chunkTicks = 8
	)
	tr := syntheticTrace(0.5, vehicles, ticks, chunkTicks)
	src, err := NewBytesSource(encodeTrace(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.DT() != 0.5 || src.NumVehicles() != vehicles || src.ChunkTicks() != chunkTicks || src.NumTicks() != ticks {
		t.Fatalf("source shape dt=%g vehicles=%d chunkTicks=%d ticks=%d",
			src.DT(), src.NumVehicles(), src.ChunkTicks(), src.NumTicks())
	}
	if want := NumChunks(ticks, chunkTicks); src.NumChunks() != want {
		t.Fatalf("NumChunks = %d, want %d", src.NumChunks(), want)
	}
	var wg sync.WaitGroup
	for idx := src.NumChunks() - 1; idx >= 0; idx-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cf, err := src.ReadChunk(idx, nil)
			if err != nil {
				t.Errorf("ReadChunk(%d): %v", idx, err)
				return
			}
			first := idx * chunkTicks
			wantTicks := chunkTicks
			if rem := ticks - first; rem < wantTicks {
				wantTicks = rem
			}
			if cf.Ticks != wantTicks || len(cf.Pts) != wantTicks*vehicles || cf.Retries != 0 {
				t.Errorf("chunk %d: ticks=%d pts=%d retries=%d, want ticks=%d pts=%d retries=0",
					idx, cf.Ticks, len(cf.Pts), cf.Retries, wantTicks, wantTicks*vehicles)
				return
			}
			for k := 0; k < cf.Ticks; k++ {
				row := tr.Row(first + k)
				for v := 0; v < vehicles; v++ {
					if cf.Pts[k*vehicles+v] != row[v] {
						t.Errorf("chunk %d tick %d vehicle %d: %v, want %v",
							idx, first+k, v, cf.Pts[k*vehicles+v], row[v])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if _, err := src.ReadChunk(src.NumChunks(), nil); err == nil {
		t.Fatal("reading past the last chunk succeeded")
	}
}

// delaySource injects a fixed latency into every fetch — enough for the
// adaptive depth to see expensive chunks without a real network.
type delaySource struct {
	ChunkSource
	delay time.Duration
}

func (d *delaySource) ReadChunk(idx int, dst []geom.Point) (ChunkFetch, error) {
	time.Sleep(d.delay)
	return d.ChunkSource.ReadChunk(idx, dst)
}

// TestWindowAdaptiveOverDelayedSource sweeps a prefetching window over a
// high-latency source: values must stay identical to the resident trace,
// and the adaptive depth must have grown past the fixed one-chunk
// readahead.
func TestWindowAdaptiveOverDelayedSource(t *testing.T) {
	const (
		vehicles   = 2
		ticks      = 96
		chunkTicks = 8
	)
	tr := syntheticTrace(0.5, vehicles, ticks, chunkTicks)
	inner, err := NewBytesSource(encodeTrace(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	src := &delaySource{ChunkSource: inner, delay: 2 * time.Millisecond}
	w := narrow(NewWindowSource(src, WindowConfig{Prefetch: true}), 2, 5)
	defer w.Close()
	loads, maxDepth := 0, 0
	var waitNs int64
	w.SetChunkObserver(func(op ChunkOp) {
		if op.Kind == OpLoad {
			loads++
			waitNs += op.WaitNs
		}
		maxDepth = max(maxDepth, op.Depth)
	})
	for cursor := 0; cursor < ticks; cursor++ {
		if err := w.Advance(cursor); err != nil {
			t.Fatalf("Advance(%d): %v", cursor, err)
		}
		now := float64(cursor) * 0.5
		for v := 0; v < vehicles; v++ {
			if got, want := w.At(v, now), tr.At(v, now); got != want {
				t.Fatalf("cursor %d vehicle %d: %v, want %v", cursor, v, got, want)
			}
		}
	}
	if maxDepth <= 1 {
		t.Errorf("adaptive depth stayed at %d over a 2ms-latency source", maxDepth)
	}
	if loads != NumChunks(ticks, chunkTicks) {
		t.Errorf("loads = %d, want %d", loads, NumChunks(ticks, chunkTicks))
	}
	if waitNs <= 0 {
		t.Errorf("waitNs = %d; the first synchronous load alone should have blocked", waitNs)
	}
}

// retrySource reports a fixed per-fetch retry count, standing in for a
// flaky transport that recovered every time.
type retrySource struct {
	ChunkSource
	retries int
}

func (r *retrySource) ReadChunk(idx int, dst []geom.Point) (ChunkFetch, error) {
	cf, err := r.ChunkSource.ReadChunk(idx, dst)
	cf.Retries = r.retries
	return cf, err
}

// TestWindowSurfacesFetchRetries checks that every fetch's retry count
// rides its load's ChunkOp.
func TestWindowSurfacesFetchRetries(t *testing.T) {
	const ticks, chunkTicks = 48, 8
	tr := syntheticTrace(0.5, 2, ticks, chunkTicks)
	inner, err := NewBytesSource(encodeTrace(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	w := narrow(NewWindowSource(&retrySource{ChunkSource: inner, retries: 2}, WindowConfig{}), 2, 5)
	defer w.Close()
	var opRetries int
	w.SetChunkObserver(func(op ChunkOp) {
		if op.Kind == OpLoad {
			opRetries += op.Retries
		}
	})
	for cursor := 0; cursor < ticks; cursor++ {
		if err := w.Advance(cursor); err != nil {
			t.Fatal(err)
		}
	}
	wantRetries := 2 * NumChunks(ticks, chunkTicks)
	if opRetries != wantRetries {
		t.Errorf("summed ChunkOp retries = %d, want %d", opRetries, wantRetries)
	}
}

// failSource fails every fetch of one chunk index.
type failSource struct {
	ChunkSource
	failIdx int
}

func (f *failSource) ReadChunk(idx int, dst []geom.Point) (ChunkFetch, error) {
	if idx == f.failIdx {
		return ChunkFetch{}, fmt.Errorf("injected fetch failure")
	}
	return f.ChunkSource.ReadChunk(idx, dst)
}

// TestWindowSourceErrorPoisons pins the failure contract for source-level
// fetch errors (a chunk server with exhausted retries): Advance returns a
// position-annotated *ChunkError, the error is sticky, and lookups panic.
func TestWindowSourceErrorPoisons(t *testing.T) {
	const chunkTicks = 8
	tr := syntheticTrace(0.5, 2, 64, chunkTicks)
	inner, err := NewBytesSource(encodeTrace(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	w := narrow(NewWindowSource(&failSource{ChunkSource: inner, failIdx: 3}, WindowConfig{}), 2, 2)
	defer w.Close()
	var advErr error
	for cursor := 0; cursor < 64; cursor++ {
		if advErr = w.Advance(cursor); advErr != nil {
			break
		}
	}
	var ce *ChunkError
	if !errors.As(advErr, &ce) {
		t.Fatalf("Advance error %v is not a *ChunkError", advErr)
	}
	if ce.Chunk != 3 || ce.FirstTick != 3*chunkTicks {
		t.Fatalf("ChunkError at chunk %d first tick %d, want chunk 3 first tick %d", ce.Chunk, ce.FirstTick, 3*chunkTicks)
	}
	if err := w.Advance(63); err == nil {
		t.Fatal("poisoned window accepted another Advance")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("lookup on a poisoned window did not panic")
		}
	}()
	w.Row(0)
}

// TestReadChunkMatchesRawDecode pins the block decoder to the one-shot
// decode of the raw body, at and around the block size: bodies of 1, 4095,
// 4096 and 4097 points, each as a full chunk and as a tail chunk, read into
// a nil, a short, a sized and an oversized dst.
func TestReadChunkMatchesRawDecode(t *testing.T) {
	for _, body := range []int{1, 4095, 4096, 4097} {
		// One vehicle, so a chunk of k ticks is a body of k points.
		for _, layout := range []struct {
			name              string
			chunkTicks, ticks int
			idx               int // the chunk whose body holds body points
		}{
			{"full", body, body + 1, 0},
			{"tail", body + 1, 2*body + 1, 1},
		} {
			t.Run(fmt.Sprintf("%d/%s", body, layout.name), func(t *testing.T) {
				src, err := NewBytesSource(encodeTrace(t, syntheticTrace(0.5, 1, layout.ticks, layout.chunkTicks)))
				if err != nil {
					t.Fatal(err)
				}
				for idx := 0; idx < src.NumChunks(); idx++ {
					raw, ticks, err := src.ReadRawChunk(idx, nil)
					if err != nil {
						t.Fatal(err)
					}
					want, err := DecodePoints(raw, nil)
					if err != nil {
						t.Fatal(err)
					}
					if idx == layout.idx && len(want) != body {
						t.Fatalf("chunk %d holds %d points, the layout wants %d", idx, len(want), body)
					}
					oversized := make([]geom.Point, len(want)+7)
					for i := range oversized {
						oversized[i] = geom.Pt(-1, -1)
					}
					for _, dst := range []struct {
						name string
						pts  []geom.Point
					}{
						{"nil", nil},
						{"short", make([]geom.Point, len(want)/2)},
						{"sized", make([]geom.Point, len(want))},
						{"oversized", oversized},
					} {
						cf, err := src.ReadChunk(idx, dst.pts)
						if err != nil {
							t.Fatalf("chunk %d, %s dst: %v", idx, dst.name, err)
						}
						if cf.Ticks != ticks || !slices.Equal(cf.Pts, want) {
							t.Fatalf("chunk %d, %s dst: %d ticks %v, raw decode %d ticks %v", idx, dst.name, cf.Ticks, cf.Pts, ticks, want)
						}
						if cap(dst.pts) >= len(want) && &cf.Pts[0] != &dst.pts[0] {
							t.Fatalf("chunk %d, %s dst: decoded outside the caller's buffer", idx, dst.name)
						}
					}
				}
			})
		}
	}
}

// totalAlloc returns the bytes the process allocated while fn ran.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestChunkIOScratchIsBounded writes and reads back one 16 MiB chunk: the
// writer's flush and a read into a sized dst may each stage one block of
// encoded bytes, never the chunk's encoding.
func TestChunkIOScratchIsBounded(t *testing.T) {
	const vehicles, chunkTicks, limit = 4096, 256, 128 << 10
	path := filepath.Join(t.TempDir(), "big.lbtc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cw := NewChunkWriter(f, 0.5, vehicles, chunkTicks)
	for tick := 0; tick < chunkTicks; tick++ {
		row := cw.AppendRow()
		for v := range row {
			row[v] = geom.Pt(float64(tick), float64(v))
		}
	}
	if got := totalAlloc(func() { err = cw.Close() }); got >= limit {
		t.Errorf("flushing a %d-point chunk allocated %d bytes, want < %d", vehicles*chunkTicks, got, limit)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst := make([]geom.Point, vehicles*chunkTicks)
	var cf ChunkFetch
	if got := totalAlloc(func() { cf, err = src.ReadChunk(0, dst) }); got >= limit {
		t.Errorf("reading a %d-byte chunk into a sized dst allocated %d bytes, want < %d", 16*len(dst), got, limit)
	}
	if err != nil {
		t.Fatal(err)
	}
	if last := cf.Pts[len(cf.Pts)-1]; cf.Ticks != chunkTicks || last != geom.Pt(chunkTicks-1, vehicles-1) {
		t.Fatalf("read back %d ticks ending at %v", cf.Ticks, last)
	}
}

// TestDecodePointsBadLength pins the partial-point error.
func TestDecodePointsBadLength(t *testing.T) {
	if _, err := DecodePoints(make([]byte, 24), nil); err == nil {
		t.Fatal("24-byte body decoded")
	}
	pts, err := DecodePoints(make([]byte, 32), nil)
	if err != nil || len(pts) != 2 {
		t.Fatalf("32-byte body: %d points, err %v", len(pts), err)
	}
}
