package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"lbchat/internal/geom"
)

// Stream format ("LBTC", little-endian throughout):
//
//	header:  magic "LBTC" | uint32 version | float64 dt |
//	         uint32 vehicles | uint32 chunkTicks
//	chunk:   uint32 ticksInChunk | ticksInChunk*vehicles × (float64 x, float64 y)
//	footer:  uint32 0 (a zero-tick chunk marks end of stream)
//
// Chunks arrive in tick order; every chunk except the last carries exactly
// chunkTicks ticks. The format is self-delimiting, so traces can be framed
// inside a larger stream.
const (
	streamMagic   = "LBTC"
	streamVersion = 1
)

// ChunkWriter streams trace chunks to an io.Writer so a recording can be
// spilled incrementally instead of held resident. Rows are appended with
// AppendRow (same contract as Trace.AppendRow); full chunks are flushed as
// they complete, encoded blockBytes at a time through the buffered writer,
// and Close flushes the tail chunk plus the end-of-stream marker. The
// writer's footprint is one chunk of points and one block.
type ChunkWriter struct {
	w          *bufio.Writer
	dt         float64
	vehicles   int
	chunkTicks int
	buf        []geom.Point // current partial chunk, row-major
	scratch    []byte
	headerOK   bool
	closed     bool
	err        error
}

// NewChunkWriter returns a writer streaming to w. Non-positive chunkTicks
// falls back to DefaultChunkTicks. The header is written lazily on the
// first append (or Close), so constructing a writer is infallible.
func NewChunkWriter(w io.Writer, dt float64, vehicles, chunkTicks int) *ChunkWriter {
	if chunkTicks <= 0 {
		chunkTicks = DefaultChunkTicks
	}
	if vehicles < 0 {
		vehicles = 0
	}
	return &ChunkWriter{
		w:          bufio.NewWriter(w),
		dt:         dt,
		vehicles:   vehicles,
		chunkTicks: chunkTicks,
		buf:        make([]geom.Point, 0, chunkTicks*vehicles),
	}
}

// AppendRow extends the stream by one tick and returns the row's backing
// slice (length vehicles) for the caller to fill in place before the next
// AppendRow or Close call. Appending after Close, or after a write error,
// returns nil.
func (cw *ChunkWriter) AppendRow() []geom.Point {
	if cw.err != nil || cw.closed {
		return nil
	}
	if len(cw.buf) == cw.chunkTicks*cw.vehicles && cw.vehicles > 0 {
		cw.flushChunk()
		if cw.err != nil {
			return nil
		}
	}
	off := len(cw.buf)
	cw.buf = cw.buf[: off+cw.vehicles : cw.chunkTicks*cw.vehicles]
	return cw.buf[off:]
}

func (cw *ChunkWriter) writeHeader() {
	if cw.headerOK || cw.err != nil {
		return
	}
	if _, err := cw.w.WriteString(streamMagic); err != nil {
		cw.err = err
		return
	}
	cw.scratch = binary.LittleEndian.AppendUint32(cw.scratch[:0], streamVersion)
	cw.scratch = binary.LittleEndian.AppendUint64(cw.scratch, math.Float64bits(cw.dt))
	cw.scratch = binary.LittleEndian.AppendUint32(cw.scratch, uint32(cw.vehicles))
	cw.scratch = binary.LittleEndian.AppendUint32(cw.scratch, uint32(cw.chunkTicks))
	_, cw.err = cw.w.Write(cw.scratch)
	cw.headerOK = true
}

func (cw *ChunkWriter) flushChunk() {
	cw.writeHeader()
	if cw.err != nil {
		return
	}
	ticksInChunk := 0
	if cw.vehicles > 0 {
		ticksInChunk = len(cw.buf) / cw.vehicles
	}
	if ticksInChunk == 0 {
		return
	}
	cw.scratch = binary.LittleEndian.AppendUint32(cw.scratch[:0], uint32(ticksInChunk))
	if _, cw.err = cw.w.Write(cw.scratch); cw.err != nil {
		return
	}
	// The body goes out in blocks of at most blockBytes, so the writer holds
	// one chunk of points and never its encoding.
	if need := min(len(cw.buf)*16, blockBytes); cap(cw.scratch) < need {
		cw.scratch = make([]byte, 0, need)
	}
	for at := 0; at < len(cw.buf); at += blockBytes / 16 {
		cw.scratch = cw.scratch[:0]
		for _, p := range cw.buf[at:min(at+blockBytes/16, len(cw.buf))] {
			cw.scratch = binary.LittleEndian.AppendUint64(cw.scratch, math.Float64bits(p.X))
			cw.scratch = binary.LittleEndian.AppendUint64(cw.scratch, math.Float64bits(p.Y))
		}
		if _, cw.err = cw.w.Write(cw.scratch); cw.err != nil {
			return
		}
	}
	cw.buf = cw.buf[:0]
}

// Close flushes the partial tail chunk and the end-of-stream marker. It is
// idempotent; the first error encountered anywhere in the stream's life is
// returned.
func (cw *ChunkWriter) Close() error {
	if cw.closed {
		return cw.err
	}
	cw.closed = true
	cw.flushChunk()
	cw.writeHeader()
	if cw.err == nil {
		cw.scratch = binary.LittleEndian.AppendUint32(cw.scratch[:0], 0)
		_, cw.err = cw.w.Write(cw.scratch)
	}
	if cw.err == nil {
		cw.err = cw.w.Flush()
	}
	return cw.err
}

// streamHeaderLen is the encoded size of the LBTC header.
const streamHeaderLen = len(streamMagic) + 4 + 8 + 4 + 4

// decodeStreamHeader parses and validates an encoded LBTC header of
// streamHeaderLen bytes.
func decodeStreamHeader(head []byte) (dt float64, vehicles, chunkTicks int, err error) {
	if string(head[:4]) != streamMagic {
		return 0, 0, 0, fmt.Errorf("trace: bad stream magic %q", head[:4])
	}
	version := binary.LittleEndian.Uint32(head[4:])
	if version != streamVersion {
		return 0, 0, 0, fmt.Errorf("trace: unsupported stream version %d", version)
	}
	dt = math.Float64frombits(binary.LittleEndian.Uint64(head[8:]))
	vehicles = int(binary.LittleEndian.Uint32(head[16:]))
	chunkTicks = int(binary.LittleEndian.Uint32(head[20:]))
	if dt <= 0 || math.IsNaN(dt) || math.IsInf(dt, 0) {
		return 0, 0, 0, fmt.Errorf("trace: stream header carries invalid dt %g", dt)
	}
	if chunkTicks <= 0 {
		return 0, 0, 0, fmt.Errorf("trace: stream header carries invalid chunk capacity %d", chunkTicks)
	}
	return dt, vehicles, chunkTicks, nil
}

// Encode streams the trace through a ChunkWriter onto w, preserving the
// trace's chunk capacity.
func (tr *Trace) Encode(w io.Writer) error {
	cw := NewChunkWriter(w, tr.dt, tr.vehicles, tr.chunkTicks)
	for t := 0; t < tr.ticks; t++ {
		copy(cw.AppendRow(), tr.Row(t))
	}
	return cw.Close()
}
