// Package trace records and replays vehicle mobility: position snapshots at
// a fixed frame rate and contact-duration estimation — the "assistive
// information" of Eq. (5) — by stepping the recorded future trace at its
// tick interval, up to a horizon (ROADMAP item 21 replaces that with a
// predictor over the routes vehicles share).
//
// The paper runs its CARLA world for 120 hours and records expert positions
// at 2 fps; we generate traces the same way from internal/world.
//
// Storage is columnar and chunked: positions live in flat []geom.Point
// backing arrays of fixed tick capacity, laid out row-major [tick][vehicle],
// so appending a tick allocates nothing in steady state and a whole tick is
// one contiguous Row. ChunkWriter streams the same chunks to an io.Writer
// (format "LBTC"), so 10k-vehicle recordings need not be resident.
//
// LBTC bytes are read one way: IndexedChunkSource scans the header and the
// chunk length fields once — checking each against the stream's size, so no
// header can size anything beyond the bytes that are there — and serves
// chunks by index, reading each body in 64 KB blocks that DecodePoints
// decodes straight into the caller's chunk. ChunkWriter encodes in the same
// blocks, so neither side holds a chunk-sized byte buffer.
//
// Trace is the one mobility type, in two residencies. A resident trace
// (New, FromRows, Record, or Load of a chunk source) holds every chunk; its
// Advance, Reserve and SetChunkObserver do nothing, so runs may share it. A
// windowed trace (NewWindowSource over an IndexedChunkSource, or
// OpenWindowFile) retains only the chunks covering
// [cursor−behind, cursor+ahead] — 30 s and 150 s unless a consumer's Reserve
// widens them — advanced by a monotone cursor, evicting behind and
// optionally reading one chunk ahead; out-of-window reads panic with
// *WindowViolation and decode failures surface as position-annotated
// *ChunkError. Both residencies answer queries through the same methods, so
// streamed and resident replays are bit-identical (DESIGN.md §12).
package trace
