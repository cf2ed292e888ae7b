// Package traceserve moves the streaming trace engine's chunk paging over
// HTTP: a Server exposes an LBTC trace's chunks by index, and a client
// Source implements trace.ChunkSource against such a server, so a
// trace.Window can page a mobility trace that lives in another process —
// a peer vehicle, an edge node, or a blob store front — exactly as it
// pages a local file.
//
// # Wire format
//
// Two endpoints, both GET, versioned under /v1:
//
//	/v1/meta         → JSON stream header: dt, vehicles, chunk_ticks,
//	                   total_ticks, num_chunks
//	/v1/chunk/<idx>  → one chunk body: ticks×vehicles little-endian
//	                   (float64 x, float64 y) pairs — the exact LBTC chunk
//	                   body bytes, no re-encoding.
//
// Every chunk response carries Content-Length (ticks×vehicles×16),
// X-Lbtc-Ticks (the chunk's tick count; the tail chunk may be short), and
// X-Lbtc-Crc32 (IEEE CRC-32 of the body, hex). The client verifies all
// three, so truncated or corrupted responses are detected before a single
// decoded point reaches the window. The metadata cannot be checksummed, so
// Dial bounds it instead: no ticks of zero vehicles, no chunk over a fixed
// byte cap.
//
// # Determinism
//
// The transport changes nothing about results: the client retries failed
// or corrupt fetches with exponential backoff, and a chunk is either
// delivered bit-identical to the file bytes or the window poisons itself
// with a position-annotated *trace.ChunkError. Fetch effort (retries,
// wait time, prefetch depth) flows only through the trace.ChunkOp side
// channel into the trace.chunk_* summary counters, never the telemetry
// event stream — a remote-served run's event stream is byte-identical to
// the local-streamed and resident runs' (TestStreamABDeterminism, make
// trace-smoke).
//
// # Fault injection
//
// ServerConfig takes a faults.FetchConfig (added latency, request loss)
// so the retry and adaptive-prefetch paths can be exercised on localhost;
// cmd/trace-serve exposes it as -fetch-faults {off,slow,lossy,flaky}.
package traceserve
