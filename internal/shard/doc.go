// Package shard holds the synthetic fleet of the scale workloads and a
// grid-region pair scanner that no engine path uses any more.
//
// Fleet is the synthetic random-waypoint workload used by the fleetscan
// scale experiment and the fleet-scan benchmark workload: per-vehicle
// derived RNG streams keep its kinematics bit-identical at any worker
// count.
//
// Scanner was the engine's sharded encounter scan until that option left
// core.Config (EXPERIMENTS.md "Scale — fleet scan": it lost to the single
// spatial.Index on every measured pairing). It stays, with its tests and
// BenchmarkShardScan, only because the frozen benchmarks/perf harness times
// NewScanner(4, 1).Scan for its shard.scan_us row; the next benchmark PR
// drops that row and scanner.go with it (ROADMAP item 13(b)).
//
// The Scanner splits the occupied bounding box into an Sx×Sy region grid,
// assigns each vehicle to the region holding its position, and halo-exports
// every vehicle to the neighboring regions its radio disc overlaps, so each
// shard enumerates its radio-range pairs from purely local state (a dense
// counting-sort grid per shard). A pair is owned — and emitted — by exactly
// one shard: the owner of its lower-ID member, which the halo guarantees can
// see the partner. Per-shard outputs are packed as uint64 keys and merged
// with one global sort, reproducing internal/spatial's canonical ascending
// (A, B) order bit for bit; the in-range predicate is the exact
// spatial.WithinBall screen, so the pair set is bit-identical too. Regions
// run on the internal/parallel pool and results are independent of both the
// worker count and the shard count.
package shard
