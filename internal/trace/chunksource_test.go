package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

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

// bytesSource indexes an in-memory LBTC stream as a random-access chunk
// source.
func bytesSource(raw []byte) (*IndexedChunkSource, error) {
	return NewIndexedSource(bytes.NewReader(raw), int64(len(raw)))
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
	src, err := bytesSource(encodeTrace(t, tr))
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
			pts, err := src.ReadChunk(idx, nil)
			if err != nil {
				t.Errorf("ReadChunk(%d): %v", idx, err)
				return
			}
			first := idx * chunkTicks
			wantTicks := chunkTicks
			if rem := ticks - first; rem < wantTicks {
				wantTicks = rem
			}
			if len(pts) != wantTicks*vehicles {
				t.Errorf("chunk %d: %d points, want %d", idx, len(pts), wantTicks*vehicles)
				return
			}
			for k := 0; k < wantTicks; k++ {
				row := tr.Row(first + k)
				for v := 0; v < vehicles; v++ {
					if pts[k*vehicles+v] != row[v] {
						t.Errorf("chunk %d tick %d vehicle %d: %v, want %v",
							idx, first+k, v, pts[k*vehicles+v], row[v])
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

// failReader fails every read at one offset — a disk error under the
// first block of one chunk's body.
type failReader struct {
	io.ReaderAt
	failAt int64
}

func (f *failReader) ReadAt(p []byte, off int64) (int, error) {
	if off == f.failAt {
		return 0, errors.New("injected read failure")
	}
	return f.ReaderAt.ReadAt(p, off)
}

// TestWindowSourceErrorPoisons pins the failure contract for read errors
// under an indexed stream: Advance returns a position-annotated
// *ChunkError, the error is sticky, and lookups panic.
func TestWindowSourceErrorPoisons(t *testing.T) {
	const chunkTicks = 8
	raw := encodeTrace(t, syntheticTrace(0.5, 2, 64, chunkTicks))
	r := &failReader{ReaderAt: bytes.NewReader(raw), failAt: -1}
	src, err := NewIndexedSource(r, int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	r.failAt = src.index[3].off
	w := narrow(NewWindowSource(src, WindowConfig{}), 2, 2)
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
				src, err := bytesSource(encodeTrace(t, syntheticTrace(0.5, 1, layout.ticks, layout.chunkTicks)))
				if err != nil {
					t.Fatal(err)
				}
				for idx := 0; idx < src.NumChunks(); idx++ {
					raw := make([]byte, src.index[idx].ticks*src.vehicles*16)
					if _, err := src.r.ReadAt(raw, src.index[idx].off); err != nil {
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
						pts, err := src.ReadChunk(idx, dst.pts)
						if err != nil {
							t.Fatalf("chunk %d, %s dst: %v", idx, dst.name, err)
						}
						if !slices.Equal(pts, want) {
							t.Fatalf("chunk %d, %s dst: %v, raw decode %v", idx, dst.name, pts, want)
						}
						if cap(dst.pts) >= len(want) && &pts[0] != &dst.pts[0] {
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
	var pts []geom.Point
	if got := totalAlloc(func() { pts, err = src.ReadChunk(0, dst) }); got >= limit {
		t.Errorf("reading a %d-byte chunk into a sized dst allocated %d bytes, want < %d", 16*len(dst), got, limit)
	}
	if err != nil {
		t.Fatal(err)
	}
	if last := pts[len(pts)-1]; len(pts) != vehicles*chunkTicks || last != geom.Pt(chunkTicks-1, vehicles-1) {
		t.Fatalf("read back %d points ending at %v", len(pts), last)
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
