// Package experiments reproduces the paper's evaluation (§IV). Every table,
// figure and extension study is one entry of Catalogue: the arms it trains
// (protocol × wireless regime × one engine-config mutation) against the same
// workload (map, per-vehicle datasets, mobility trace, probe set, driving
// benchmark routes) and a reporter that lays the runs out in the paper's
// row/series form. Run, lbchat-bench, the root benchmarks and DESIGN.md §5
// all read that one list.
//
// Everything is parameterized by a Scale so the identical code paths run as
// fast unit tests, as medium benchmarks, and as full paper-scale
// reproductions (32 vehicles).
package experiments
