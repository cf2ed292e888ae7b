// Package sched provides the discrete-event machinery for the virtual-time
// co-simulation: a deterministic event queue ordered by (time, sequence) so
// simultaneous events fire in insertion order, making whole runs
// reproducible.
//
// The queue carries deferred effects — chiefly transfer completions: a chat
// decides its outcome at initiation time but the dataset expansion and model
// merge take effect only when the payload would actually have landed.
//
// Calendar is the tick-indexed due-time queue behind the engine's training
// scheduler (DESIGN.md §14): a power-of-two ring of buckets keyed by
// (dueTick, vehicleID) with lazy deletion, so an empty tick costs O(1) and a
// tick with k due vehicles costs O(k) — replacing the per-tick O(fleet) scan,
// which survives only as the test oracle in internal/core/oracle_test.go.
package sched
