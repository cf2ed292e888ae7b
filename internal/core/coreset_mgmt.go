package core

import (
	"fmt"

	"lbchat/internal/coreset"
	"lbchat/internal/dataset"
	"lbchat/internal/telemetry"
)

// EnsureCoreset returns the vehicle's current coreset, refreshing it when
// it is missing or stale (older than coresetRefresh). Between refreshes the
// coreset is maintained by the cheap merge-and-reduce path, matching
// §III-D's two-speed updating.
//
// The refresh is incremental (DESIGN.md §16): a merge-and-reduce partition
// tree over the vehicle's append-only dataset rebuilds only the leaves
// dirtied since the last refresh (absorbed peer frames, salvages) with the
// current policy's losses and re-merges their root paths, so refresh cost
// scales with the data added rather than the dataset size. Scoring is
// bounded per leaf. The leaf/merge stats flow through the
// telemetry.Observer side channel only, so the event stream has the same
// shape at every worker count. The full Algorithm-1 rebuild the
// tree's summaries are judged against lives in oracle_test.go.
func (e *Engine) EnsureCoreset(v *Vehicle) (*coreset.Coreset, error) {
	if v.Core != nil && e.now-v.CoreBuiltAt < coresetRefresh {
		return v.Core, nil
	}
	if v.Data.Len() == 0 {
		return nil, fmt.Errorf("core: vehicle %d has no local data", v.ID)
	}
	size := e.Cfg.CoresetSize
	if v.CoresetSizeOverride > 0 {
		size = v.CoresetSizeOverride
	}
	if v.Tree == nil {
		v.Tree = coreset.NewTree(e.Cfg.CoresetMethod)
	}
	cs, stats, err := v.Tree.Refresh(v.Data, size, v.Policy.PerSampleLosses, v.rng.Derive("coreset-tree"))
	if err != nil {
		return nil, fmt.Errorf("core: incremental coreset refresh for vehicle %d: %w", v.ID, err)
	}
	v.Core = cs
	v.CoreBuiltAt = e.now
	e.Emit(telemetry.CoresetRebuilt{Time: e.now, Vehicle: v.ID, Size: cs.Len()})
	if e.obs != nil {
		e.obs.Observe(telemetry.MCoresetLeavesRebuilt, float64(stats.LeavesRebuilt))
		e.obs.Observe(telemetry.MCoresetLeavesCached, float64(stats.LeavesCached))
		e.obs.Observe(telemetry.MCoresetTreeMerges, float64(stats.TreeMerges))
	}
	return cs, nil
}

// localWeight is §III-D's uniform original weight w(d) every absorbed
// sample carries.
const localWeight = 1

// AbsorbCoreset expands the vehicle's local dataset with a received peer
// coreset (uniform original weights, §III-D) and refreshes the vehicle's own
// coreset via merge-and-reduce so it summarizes the expanded dataset.
// The vehicle's partition tree, when present, is extended over the appended
// range so the next incremental refresh rebuilds exactly the leaves the
// absorb dirtied — this covers every absorb path (full coresets, SCO, and
// weight-discounted partial salvages alike append through here).
func (e *Engine) AbsorbCoreset(v *Vehicle, peer *coreset.Coreset) error {
	v.Data.Absorb(peer.Data(), localWeight)
	if v.Tree != nil {
		v.Tree.Extend(v.Data.Len())
	}
	e.Emit(telemetry.CoresetAbsorbed{Time: e.now, Vehicle: v.ID, Frames: peer.Len()})
	if v.Core == nil {
		return nil
	}
	size := e.Cfg.CoresetSize
	if v.CoresetSizeOverride > 0 {
		size = v.CoresetSizeOverride
	}
	prev := v.Core.Len()
	merged, err := coreset.MergeReduce(v.Core, peer, size, v.rng.Derive("reduce"))
	if err != nil {
		return fmt.Errorf("core: merge-reduce for vehicle %d: %w", v.ID, err)
	}
	if dropped := prev + peer.Len() - merged.Len(); dropped > 0 {
		e.Emit(telemetry.CoresetEvicted{Time: e.now, Vehicle: v.ID, Dropped: dropped})
	}
	v.Core = merged
	return nil
}

// EvalSubset returns up to cfg.EvalSubset items of a weighted set, drawn
// uniformly without replacement with the vehicle's stream. Value assessments
// run on this subset to bound computation per chat.
func (e *Engine) EvalSubset(v *Vehicle, items []dataset.Weighted) []dataset.Weighted {
	limit := e.Cfg.EvalSubset
	if limit <= 0 || len(items) <= limit {
		return items
	}
	perm := v.rng.Perm(len(items))[:limit]
	out := make([]dataset.Weighted, limit)
	for i, idx := range perm {
		out[i] = items[idx]
	}
	return out
}
