package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

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

// IndexedChunkSource is a random-access ChunkSource over a seekable LBTC
// stream (io.ReaderAt): the constructor scans the chunk headers once to
// build an offset index, and every ReadChunk is then one positioned read
// plus a decode — no shared cursor, so concurrent fetches never contend.
type IndexedChunkSource struct {
	r          io.ReaderAt
	dt         float64
	vehicles   int
	chunkTicks int
	totalTicks int
	index      []chunkIndexEntry
	closer     io.Closer
	scratch    sync.Pool // *[]byte raw-chunk buffers for concurrent decodes
}

// NewIndexedSource scans the LBTC stream in r (header plus chunk length
// fields, seeking over bodies) and returns a random-access source over it.
// The source does not own r; see OpenFileSource for the owning variant.
func NewIndexedSource(r io.ReaderAt) (*IndexedChunkSource, error) {
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
	var lenBuf [4]byte
	for chunk := 0; ; chunk++ {
		if _, err := r.ReadAt(lenBuf[:], off); err != nil {
			return nil, &ChunkError{Chunk: chunk, FirstTick: s.totalTicks,
				Err: fmt.Errorf("reading chunk length: %w", err)}
		}
		n := int(binary.LittleEndian.Uint32(lenBuf[:]))
		if n == 0 {
			return s, nil
		}
		if n > chunkTicks {
			return nil, &ChunkError{Chunk: chunk, FirstTick: s.totalTicks,
				Err: fmt.Errorf("chunk of %d ticks exceeds capacity %d", n, chunkTicks)}
		}
		body := int64(n) * int64(vehicles) * 16
		s.index = append(s.index, chunkIndexEntry{off: off + 4, ticks: n})
		s.totalTicks += n
		off += 4 + body
	}
}

// OpenFileSource opens an LBTC file as a random-access chunk source that
// owns the file handle: Close releases it.
func OpenFileSource(path string) (*IndexedChunkSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: opening %s: %w", path, err)
	}
	s, err := NewIndexedSource(f)
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
	return NewIndexedSource(bytes.NewReader(raw))
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

// ReadRawChunk reads chunk idx's encoded body into dst (grown as needed)
// and returns it alongside the chunk's tick count. This is the zero-decode
// path the chunk server uses to put bodies straight on the wire.
func (s *IndexedChunkSource) ReadRawChunk(idx int, dst []byte) ([]byte, int, error) {
	if idx < 0 || idx >= len(s.index) {
		return nil, 0, fmt.Errorf("trace: chunk %d outside stream of %d chunks", idx, len(s.index))
	}
	e := s.index[idx]
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

// ReadChunk implements ChunkSource: one positioned read plus a decode,
// safe for concurrent use.
func (s *IndexedChunkSource) ReadChunk(idx int, dst []geom.Point) (ChunkFetch, error) {
	var raw []byte
	if p, ok := s.scratch.Get().(*[]byte); ok {
		raw = *p
	}
	raw, ticks, err := s.ReadRawChunk(idx, raw)
	if err != nil {
		return ChunkFetch{}, err
	}
	pts, err := DecodePoints(raw, dst)
	s.scratch.Put(&raw)
	if err != nil {
		return ChunkFetch{}, err
	}
	return ChunkFetch{Pts: pts, Ticks: ticks}, nil
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
