package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"lbchat/internal/geom"
)

// ChunkSource serves LBTC chunks by index — the random-access seam behind
// Window. The resident file source, in-memory buffers, and the remote chunk
// client (internal/traceserve) all implement it, so the window never knows
// whether a chunk came from a local decode or crossed a network.
//
// Implementations must be safe for concurrent ReadChunk calls: the
// window's adaptive prefetcher keeps up to depth-k fetches in flight at
// once.
type ChunkSource interface {
	// DT returns the stream's tick interval in seconds.
	DT() float64
	// NumVehicles returns the stream's vehicle count.
	NumVehicles() int
	// ChunkTicks returns the stream's chunk capacity in ticks.
	ChunkTicks() int
	// NumTicks returns the stream's total tick count.
	NumTicks() int
	// ReadChunk decodes chunk idx into dst (grown as needed; dst may be
	// nil) and returns the fetch result. Reading past the last chunk is an
	// error. The returned points are owned by the caller.
	ReadChunk(idx int, dst []geom.Point) (ChunkFetch, error)
	// Close releases the source's resources (file handles, connections).
	Close() error
}

// ChunkFetch is one completed chunk read: the decoded positions
// (row-major, Ticks × vehicles) and how hard the fetch was.
type ChunkFetch struct {
	// Pts holds the chunk's positions, backed by the caller's dst when its
	// capacity sufficed.
	Pts []geom.Point
	// Ticks is the chunk's tick count (the tail chunk may be short).
	Ticks int
	// Retries counts transport-level retries the fetch needed; always zero
	// for local sources.
	Retries int
}

// NumChunks returns the chunk count of a stream with the given shape.
func NumChunks(totalTicks, chunkTicks int) int {
	if totalTicks <= 0 || chunkTicks <= 0 {
		return 0
	}
	return (totalTicks + chunkTicks - 1) / chunkTicks
}

// ticksInChunk returns the tick count of chunk idx in a stream of the given
// shape (the tail chunk may be short).
func ticksInChunk(idx, totalTicks, chunkTicks int) int {
	if rem := totalTicks - idx*chunkTicks; rem < chunkTicks {
		return rem
	}
	return chunkTicks
}

// checkChunk verifies a fetched chunk has the shape its place in the stream
// implies, whatever the source claimed.
func checkChunk(ticks int, pts []geom.Point, wantTicks, vehicles int) error {
	if ticks != wantTicks || len(pts) != wantTicks*vehicles {
		return fmt.Errorf("chunk holds %d ticks in %d positions, expected %d ticks of %d vehicles",
			ticks, len(pts), wantTicks, vehicles)
	}
	return nil
}

// DecodePoints decodes an LBTC chunk body (little-endian float64 x/y
// pairs) into dst, growing it as needed. The body length must be a
// multiple of 16.
func DecodePoints(raw []byte, dst []geom.Point) ([]geom.Point, error) {
	if len(raw)%16 != 0 {
		return nil, fmt.Errorf("trace: chunk body of %d bytes is not a whole number of points", len(raw))
	}
	n := len(raw) / 16
	if cap(dst) < n {
		dst = make([]geom.Point, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i].X = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*16:]))
		dst[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*16+8:]))
	}
	return dst, nil
}

// chunkIndexEntry locates one chunk inside a seekable LBTC stream.
type chunkIndexEntry struct {
	// off is the byte offset of the chunk body (past its length field).
	off int64
	// ticks is the chunk's tick count.
	ticks int
}

// blockBytes bounds the encoded bytes a chunk read or write stages at once
// (4096 points): bodies move between the stream and the decoded chunk in
// blocks this size, so no chunk-sized byte buffer ever sits beside the
// chunk itself.
const blockBytes = 64 << 10

// IndexedChunkSource is a random-access ChunkSource over a seekable LBTC
// stream (io.ReaderAt): the constructor scans the chunk headers once to
// build an offset index, and every ReadChunk is then positioned reads of at
// most blockBytes, each decoded straight into the caller's chunk — no
// shared cursor and no shared buffer, so concurrent fetches never contend.
type IndexedChunkSource struct {
	r          io.ReaderAt
	dt         float64
	vehicles   int
	chunkTicks int
	totalTicks int
	index      []chunkIndexEntry
	closer     io.Closer
}

// NewIndexedSource scans the size-byte LBTC stream in r (header plus chunk
// length fields, seeking over bodies) and returns a random-access source
// over it. Every length is checked against size before anything is sized by
// it, so no header can make the index, a raw chunk or a decoded chunk larger
// than the stream: a chunk whose body would run past the bytes that are
// there (leaving room for the end marker) is a *ChunkError naming it. The
// source does not own r; see OpenFileSource for the owning variant.
func NewIndexedSource(r io.ReaderAt, size int64) (*IndexedChunkSource, error) {
	r = io.NewSectionReader(r, 0, size) // no read, now or later, leaves [0, size)
	head := make([]byte, streamHeaderLen)
	if _, err := r.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("trace: reading stream header: %w", err)
	}
	dt, vehicles, chunkTicks, err := decodeStreamHeader(head)
	if err != nil {
		return nil, err
	}
	s := &IndexedChunkSource{
		r: r, dt: dt, vehicles: vehicles, chunkTicks: chunkTicks,
	}
	off := int64(streamHeaderLen)
	short := false // a chunk below capacity was seen: it must be the last
	var lenBuf [4]byte
	chunk := 0
	fail := func(err error) (*IndexedChunkSource, error) {
		return nil, &ChunkError{Chunk: chunk, FirstTick: s.totalTicks, Err: err}
	}
	for ; ; chunk++ {
		if _, err := r.ReadAt(lenBuf[:], off); err != nil {
			return fail(fmt.Errorf("reading chunk length: %w", err))
		}
		n := int(binary.LittleEndian.Uint32(lenBuf[:]))
		if n == 0 {
			return s, nil
		}
		if n > chunkTicks {
			return fail(fmt.Errorf("chunk length %d ticks exceeds capacity %d", n, chunkTicks))
		}
		if short {
			return fail(fmt.Errorf("chunk follows one shorter than capacity %d", chunkTicks))
		}
		if vehicles == 0 {
			return fail(fmt.Errorf("chunk length %d ticks in a stream of 0 vehicles", n))
		}
		// Dividing instead of multiplying: n·vehicles·16 can overflow int64.
		if room := (size - 4) - (off + 4); int64(n) > room/(int64(vehicles)*16) {
			return fail(fmt.Errorf("chunk length %d ticks × %d vehicles × 16 B runs past the %d-byte stream",
				n, vehicles, size))
		}
		s.index = append(s.index, chunkIndexEntry{off: off + 4, ticks: n})
		s.totalTicks += n
		short = n < chunkTicks
		off += 4 + int64(n)*int64(vehicles)*16
	}
}

// OpenFileSource opens an LBTC file as a random-access chunk source that
// owns the file handle: Close releases it.
func OpenFileSource(path string) (*IndexedChunkSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: opening %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: opening %s: %w", path, err)
	}
	s, err := NewIndexedSource(f, st.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: indexing %s: %w", path, err)
	}
	s.closer = f
	return s, nil
}

// NewBytesSource wraps an in-memory LBTC stream as a random-access chunk
// source.
func NewBytesSource(raw []byte) (*IndexedChunkSource, error) {
	return NewIndexedSource(bytes.NewReader(raw), int64(len(raw)))
}

// Load materializes a chunk source as a resident trace: every chunk, read
// in order. A file, a byte slice and a chunk server all load this way, so
// the sources' one decoder is the only one. The trace adopts the decoded
// chunks as they are — its tail chunk has no spare capacity, so a loaded
// trace is for reading, not for AppendRow.
func Load(src ChunkSource) (*Trace, error) {
	tr := NewChunked(src.DT(), src.NumVehicles(), src.ChunkTicks())
	total := src.NumTicks()
	for idx, n := 0, NumChunks(total, tr.chunkTicks); idx < n; idx++ {
		cf, err := src.ReadChunk(idx, nil)
		if err == nil {
			err = checkChunk(cf.Ticks, cf.Pts, ticksInChunk(idx, total, tr.chunkTicks), tr.vehicles)
		}
		if err != nil {
			return nil, &ChunkError{Chunk: idx, FirstTick: tr.ticks, Err: err}
		}
		tr.chunks = append(tr.chunks, cf.Pts)
		tr.ticks += cf.Ticks
	}
	return tr, nil
}

// DT returns the stream's tick interval in seconds.
func (s *IndexedChunkSource) DT() float64 { return s.dt }

// NumVehicles returns the stream's vehicle count.
func (s *IndexedChunkSource) NumVehicles() int { return s.vehicles }

// ChunkTicks returns the stream's chunk capacity in ticks.
func (s *IndexedChunkSource) ChunkTicks() int { return s.chunkTicks }

// NumTicks returns the stream's total tick count.
func (s *IndexedChunkSource) NumTicks() int { return s.totalTicks }

// NumChunks returns the stream's chunk count.
func (s *IndexedChunkSource) NumChunks() int { return len(s.index) }

// entry returns chunk idx's index entry, or an error naming the stream's
// chunk count when idx is outside it.
func (s *IndexedChunkSource) entry(idx int) (chunkIndexEntry, error) {
	if idx < 0 || idx >= len(s.index) {
		return chunkIndexEntry{}, fmt.Errorf("trace: chunk %d outside stream of %d chunks", idx, len(s.index))
	}
	return s.index[idx], nil
}

// ReadRawChunk reads chunk idx's encoded body into dst (grown as needed)
// and returns it alongside the chunk's tick count. This is the zero-decode
// path the chunk server uses to put bodies straight on the wire.
func (s *IndexedChunkSource) ReadRawChunk(idx int, dst []byte) ([]byte, int, error) {
	e, err := s.entry(idx)
	if err != nil {
		return nil, 0, err
	}
	n := e.ticks * s.vehicles * 16
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	if _, err := s.r.ReadAt(dst, e.off); err != nil {
		return nil, 0, fmt.Errorf("trace: reading chunk %d body: %w", idx, err)
	}
	return dst, e.ticks, nil
}

// ReadChunk implements ChunkSource, safe for concurrent use: positioned
// reads of at most blockBytes, each decoded by DecodePoints straight into
// its sub-slice of dst, so the one chunk-sized buffer is dst itself. Every
// length was checked against the stream when it was indexed; a short read
// is an error.
func (s *IndexedChunkSource) ReadChunk(idx int, dst []geom.Point) (ChunkFetch, error) {
	e, err := s.entry(idx)
	if err != nil {
		return ChunkFetch{}, err
	}
	n := e.ticks * s.vehicles
	if cap(dst) < n {
		dst = make([]geom.Point, n)
	}
	dst = dst[:n]
	block := make([]byte, min(n*16, blockBytes))
	for at := 0; at < n; {
		m := min(n-at, blockBytes/16)
		raw := block[:m*16]
		if _, err := s.r.ReadAt(raw, e.off+int64(at)*16); err != nil {
			return ChunkFetch{}, fmt.Errorf("trace: reading chunk %d body: %w", idx, err)
		}
		if _, err := DecodePoints(raw, dst[at:at+m]); err != nil {
			return ChunkFetch{}, err
		}
		at += m
	}
	return ChunkFetch{Pts: dst, Ticks: e.ticks}, nil
}

// Close releases the backing file handle when the source owns one.
func (s *IndexedChunkSource) Close() error {
	if s.closer != nil {
		err := s.closer.Close()
		s.closer = nil
		return err
	}
	return nil
}
