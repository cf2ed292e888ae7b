package trace

import (
	"bytes"
	"errors"
	"fmt"
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
	w := NewWindowSource(src, WindowConfig{Behind: 2, Ahead: 5, Prefetch: true})
	defer w.Close()
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
	if d := w.PrefetchDepth(); d <= 1 {
		t.Errorf("adaptive depth stayed at %d over a 2ms-latency source", d)
	}
	if loads, _, _ := w.Stats(); loads != NumChunks(ticks, chunkTicks) {
		t.Errorf("loads = %d, want %d", loads, NumChunks(ticks, chunkTicks))
	}
	if _, waitNs := w.FetchStats(); waitNs <= 0 {
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

// TestWindowSurfacesFetchRetries checks that per-fetch retry counts
// aggregate into FetchStats and ride each load's ChunkOp.
func TestWindowSurfacesFetchRetries(t *testing.T) {
	const ticks, chunkTicks = 48, 8
	tr := syntheticTrace(0.5, 2, ticks, chunkTicks)
	inner, err := NewBytesSource(encodeTrace(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWindowSource(&retrySource{ChunkSource: inner, retries: 2}, WindowConfig{Behind: 2, Ahead: 5})
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
	if retries, _ := w.FetchStats(); retries != wantRetries {
		t.Errorf("FetchStats retries = %d, want %d", retries, wantRetries)
	}
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
	w := NewWindowSource(&failSource{ChunkSource: inner, failIdx: 3}, WindowConfig{Behind: 2, Ahead: 2})
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
