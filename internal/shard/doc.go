// Package shard partitions a fleet into grid regions so encounter scans and
// vehicle ticks stay local to a region, the scale-out step the paper's
// 10k-vehicle regime needs.
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
// spatial.WithinBall screen, so the pair set is bit-identical too. Shards
// run on the internal/parallel pool and results are independent of both the
// worker count and the shard count.
//
// Grouper reuses the Scanner's region geometry to batch per-vehicle work
// (train steps, probe evaluations) shard-major: vehicle indices are bucketed
// by owning region and dispatched as one parallel task per region, with
// outputs written to index-addressed scratch and reduced in canonical
// vehicle order so results stay bit-identical at any worker or shard count
// (DESIGN.md §14).
//
// Fleet is the synthetic random-waypoint workload used by the fleetscan
// scale experiment: per-vehicle derived RNG streams keep its kinematics
// bit-identical at any worker count.
package shard
