// Package telemetry is the structured observability layer of the LbChat
// stack: typed events emitted from the protocol hot paths (chats, transfers,
// coreset maintenance, training steps), aggregated into counters and
// fixed-bucket histograms, and delivered to pluggable sinks (in-memory for
// tests and summaries, JSONL for offline analysis, CSV for metric dumps).
//
// Design rules, in order of importance:
//
//  1. A nil sink costs ~zero: every emission site guards with a nil check
//     before constructing the event, so a run with telemetry disabled is
//     bit-identical to — and essentially as fast as — a run predating the
//     telemetry layer.
//  2. Events carry VIRTUAL time (engine seconds / tick indices), never wall
//     clock, and are emitted in deterministic order (parallel phases buffer
//     per-vehicle results and emit in vehicle-index order). The event stream
//     of a run is therefore bit-identical at every worker count and trace
//     source. Whatever depends on how the run was executed — wall time,
//     chunk traffic, leaf caching, calendar work — goes through the one
//     optional Observer interface as a named scalar and exists only as a
//     Summary counter or histogram; the JSONL and memory sinks deliberately
//     do not implement it.
//  3. Telemetry never consumes simulation randomness and never feeds values
//     back into the simulation.
//
// Event kinds are an append-only wire format: JSONL streams written by older
// builds must keep decoding, so new behaviour (like the fault-injection and
// resilience events fault_injected, chat_resumed, and partial_salvage — see
// internal/faults and DESIGN.md §9) adds kinds rather than changing existing
// ones. Metric names are never renamed or reused; one leaves only with its
// last emitter.
package telemetry
