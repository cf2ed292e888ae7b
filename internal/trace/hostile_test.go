package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lbchat/internal/geom"
)

// lbtc assembles an LBTC stream field by field, so a test can write the
// streams no ChunkWriter would.
type lbtc []byte

func lbtcHeader(vehicles, chunkTicks uint32) lbtc {
	b := lbtc(streamMagic)
	b = binary.LittleEndian.AppendUint32(b, streamVersion)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(0.5))
	b = binary.LittleEndian.AppendUint32(b, vehicles)
	return binary.LittleEndian.AppendUint32(b, chunkTicks)
}

// chunk appends a length field claiming ticks and a body of bodyBytes zeros.
func (b lbtc) chunk(ticks uint32, bodyBytes int) lbtc {
	b = binary.LittleEndian.AppendUint32(b, ticks)
	return append(b, make([]byte, bodyBytes)...)
}

// end appends the end-of-stream marker.
func (b lbtc) end() lbtc { return binary.LittleEndian.AppendUint32(b, 0) }

// hostileStream is one malformed LBTC input and where its rejection must
// point: the chunk index of the *ChunkError, or -1 when the header itself is
// refused.
type hostileStream struct {
	name  string
	raw   []byte
	chunk int
}

// hostileStreams are the malformed inputs the one LBTC decoder must refuse
// without panicking or sizing anything by a number the bytes do not back.
// They are plain byte slices so a fuzz target can take them as seed corpus.
func hostileStreams() []hostileStream {
	const body = 2 * 16 // one tick of two vehicles
	return []hostileStream{
		// 28 bytes: at the parent commit ReadTrace died on these with an
		// unrecoverable out-of-memory fatal error.
		{"2^32-1 vehicles and ticks, one length field",
			lbtcHeader(math.MaxUint32, math.MaxUint32).chunk(math.MaxUint32, 0), 0},
		// 32 bytes: 2^30 · 2^30 · 16 wraps int64 to 0, so the parent indexed
		// this as a 2^30-vehicle stream and panicked sizing its first window.
		{"body size wraps int64 to zero",
			lbtcHeader(1<<30, 1<<30).chunk(1<<30, 0).end(), 0},
		{"body larger than the stream",
			lbtcHeader(1<<20, 256).chunk(256, body).end(), 0},
		{"chunk length above chunkTicks",
			lbtcHeader(2, 4).chunk(4, 4*body).chunk(5, 5*body).end(), 1},
		{"body cut one byte short",
			lbtcHeader(2, 4).chunk(4, 4*body).chunk(3, 3*body-1).end(), 1},
		// The last body leaves no room for the end marker.
		{"missing terminator",
			lbtcHeader(2, 4).chunk(4, 4*body).chunk(3, 3*body), 1},
		{"header only", lbtcHeader(2, 4), 0},
		{"short chunk before the last",
			lbtcHeader(2, 4).chunk(2, 2*body).chunk(4, 4*body).end(), 1},
		{"ticks of zero vehicles",
			lbtcHeader(0, 4).chunk(3, 0).end(), 0},
		{"header cut mid-field",
			lbtcHeader(2, 4)[:18], -1},
		{"empty", nil, -1},
	}
}

// TestHostileHeaders feeds every hostile stream to each way in — bytes,
// file, Load — and requires an error that names the offending chunk, no
// panic, and no allocation beyond the input's size plus slack for the error
// itself.
func TestHostileHeaders(t *testing.T) {
	dir := t.TempDir()
	for i, tc := range hostileStreams() {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "hostile"+string(rune('a'+i))+".lbtc")
			if err := os.WriteFile(path, tc.raw, 0o644); err != nil {
				t.Fatal(err)
			}
			opens := map[string]func() error{
				"NewIndexedSource": func() error { _, err := bytesSource(tc.raw); return err },
				"OpenFileSource": func() error {
					src, err := OpenFileSource(path)
					if err == nil {
						src.Close()
					}
					return err
				},
				"Load": func() error { _, err := loadBytes(tc.raw); return err },
			}
			for name, open := range opens {
				var err error
				grew := allocated(func() { err = open() })
				if err == nil {
					t.Errorf("%s accepted the stream", name)
					continue
				}
				var ce *ChunkError
				switch {
				case tc.chunk < 0 && errors.As(err, &ce):
					t.Errorf("%s: header failure reported as chunk %d: %v", name, ce.Chunk, err)
				case tc.chunk >= 0 && !errors.As(err, &ce):
					t.Errorf("%s: error %v is not a *ChunkError", name, err)
				case tc.chunk >= 0 && ce.Chunk != tc.chunk:
					t.Errorf("%s: error names chunk %d, want %d: %v", name, ce.Chunk, tc.chunk, err)
				}
				if grew > uint64(len(tc.raw))+rejectSlack {
					t.Errorf("%s allocated %d bytes rejecting a %d-byte stream", name, grew, len(tc.raw))
				}
			}
		})
	}
}

// rejectSlack is what refusing a stream may allocate beyond the stream's own
// size: the error, the file handle, the index.
const rejectSlack = 64 << 10

// allocated returns the heap bytes fn allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzLBTCDecode feeds arbitrary bytes to the one LBTC decoder, seeded with
// every hostile stream and two small valid ones (whole chunks, and a short
// tail chunk). Indexing and loading must not panic, must agree on whether
// the stream is accepted, and must refuse within rejectSlack of the input's
// size; an accepted stream's ReadChunk must return each chunk's ticks ×
// vehicles points, bit for bit the points Load materialized.
func FuzzLBTCDecode(f *testing.F) {
	for _, tc := range hostileStreams() {
		f.Add(tc.raw)
	}
	for _, ticks := range []int{8, 6} {
		var buf bytes.Buffer
		cw := NewChunkWriter(&buf, 0.5, 2, 4)
		for tick := 0; tick < ticks; tick++ {
			row := cw.AppendRow()
			for v := range row {
				row[v] = geom.Pt(float64(tick), float64(-v))
			}
		}
		if err := cw.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var (
			src             *IndexedChunkSource
			tr              *Trace
			srcErr, loadErr error
		)
		if grew := allocated(func() { src, srcErr = bytesSource(raw) }); srcErr != nil && grew > uint64(len(raw))+rejectSlack {
			t.Fatalf("NewIndexedSource allocated %d bytes rejecting a %d-byte stream", grew, len(raw))
		}
		if grew := allocated(func() { tr, loadErr = loadBytes(raw) }); loadErr != nil && grew > uint64(len(raw))+rejectSlack {
			t.Fatalf("Load allocated %d bytes rejecting a %d-byte stream", grew, len(raw))
		}
		if (srcErr == nil) != (loadErr == nil) {
			t.Fatalf("NewIndexedSource error %v, Load error %v", srcErr, loadErr)
		}
		if srcErr != nil {
			return
		}
		vehicles, total, chunkTicks := src.NumVehicles(), src.NumTicks(), src.ChunkTicks()
		if n := NumChunks(total, chunkTicks); src.NumChunks() != n {
			t.Fatalf("%d chunks indexed for %d ticks of capacity %d, want %d", src.NumChunks(), total, chunkTicks, n)
		}
		if tr.NumTicks() != total {
			t.Fatalf("Load holds %d ticks, the index %d", tr.NumTicks(), total)
		}
		for idx := 0; idx < src.NumChunks(); idx++ {
			pts, err := src.ReadChunk(idx, nil)
			if err != nil {
				t.Fatalf("ReadChunk(%d) of an accepted stream: %v", idx, err)
			}
			ticks := ticksInChunk(idx, total, chunkTicks)
			if src.index[idx].ticks != ticks || len(pts) != ticks*vehicles {
				t.Fatalf("chunk %d: %d ticks indexed, %d points read, want %d ticks of %d vehicles",
					idx, src.index[idx].ticks, len(pts), ticks, vehicles)
			}
			for k := 0; k < ticks; k++ {
				row := tr.Row(idx*chunkTicks + k)
				for v, p := range pts[k*vehicles : (k+1)*vehicles] {
					if math.Float64bits(p.X) != math.Float64bits(row[v].X) ||
						math.Float64bits(p.Y) != math.Float64bits(row[v].Y) {
						t.Fatalf("chunk %d tick %d vehicle %d: ReadChunk %v, Load %v", idx, k, v, p, row[v])
					}
				}
			}
		}
		win := NewWindowSource(src, WindowConfig{})
		for tick := 0; tick < total; tick++ {
			if err := win.Advance(tick); err != nil {
				t.Fatalf("Advance(%d) of an accepted stream: %v", tick, err)
			}
			got, want := win.Row(tick), tr.Row(tick)
			for v := range want {
				if math.Float64bits(got[v].X) != math.Float64bits(want[v].X) ||
					math.Float64bits(got[v].Y) != math.Float64bits(want[v].Y) {
					t.Fatalf("tick %d vehicle %d: window %v, Load %v", tick, v, got[v], want[v])
				}
			}
		}
	})
}
