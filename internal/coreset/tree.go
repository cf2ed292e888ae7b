package coreset

import (
	"fmt"

	"lbchat/internal/dataset"
	"lbchat/internal/simrand"
)

// This file implements incremental coreset maintenance as a merge-and-reduce
// partition tree (the classic streaming-coreset construction, applied to
// Algorithm 1's layered leaf summaries). The vehicle's append-only dataset is
// partitioned into fixed-size leaves; each leaf keeps a cached coreset built
// from a bounded scoring pool, and appended or invalidated ranges only mark
// the covering leaves dirty. A refresh rebuilds the dirty leaves and then
// re-merges just the invalidated paths of a cached binary merge tree, so its
// cost scales with the data added since the last refresh rather than with the
// total dataset size. Weight totals are preserved exactly at every level:
// leaf builds rescale to their leaf's total weight, Merge unions weights
// unchanged, and Reduce rescales survivors to the pre-reduce total.

// Tree shape, fixed: every refresh measurement and golden was taken at
// these values.
const (
	// LeafSize is the number of consecutive dataset samples per leaf. The
	// tail leaf is partial until it fills and is re-dirtied as it grows.
	LeafSize = 256
	// LeafSample bounds how many of a leaf's samples are scored to build its
	// coreset: the pool is drawn uniformly and the built coreset is rescaled
	// to the leaf's full weight. Scoring dominates refresh cost (one model
	// forward per pooled sample).
	LeafSample = 80
	// LeafTarget is the per-leaf coreset budget. It is capped by the refresh
	// budget, and must stay below LeafSample for the loss-aware construction
	// to engage (a pool at or under the target is its own coreset).
	LeafTarget = 64
)

// LossScorer evaluates per-sample losses for leaf construction; the engine
// passes the vehicle's current policy (Policy.PerSampleLosses). It is called
// only for the leaves a refresh actually rebuilds.
type LossScorer func(items []dataset.Weighted) []float64

// RefreshStats reports what one Refresh did, for the telemetry side channel
// and for tests asserting cache behavior.
type RefreshStats struct {
	// LeavesRebuilt and LeavesCached partition the tree's leaves: rebuilt
	// ones were dirty (appended, invalidated, or budget-changed), cached
	// ones were reused as-is.
	LeavesRebuilt, LeavesCached int
	// TreeMerges counts the internal merge-and-reduce nodes recomputed
	// because a descendant leaf changed; cached nodes are reused without
	// touching their subtree.
	TreeMerges int
}

// treeLeaf is one fixed-size partition of the dataset. A nil core marks the
// leaf dirty: its range was appended to, invalidated, or never built.
type treeLeaf struct {
	lo, hi int
	core   *Coreset
}

// Tree is a merge-and-reduce partition tree over one append-only dataset.
// It references the dataset by index only — samples are immutable and
// Dataset.Absorb appends — so the tree stays valid across absorbs as long as
// Extend is called with the new length. Tree is not concurrency-safe; like
// the vehicle state it summarizes, it is owned by one goroutine at a time.
type Tree struct {
	method Method
	n      int
	budget int
	leaves []treeLeaf
	// levels caches the merge tree from the previous refresh: levels[0] is
	// the leaf coresets, levels[k][i] summarizes levels[k-1][2i:2i+2]. A
	// node is reused verbatim when neither child changed, so only the dirty
	// leaves' root paths are re-merged.
	levels [][]*Coreset
	// changed is reusable scratch for the per-level change flags.
	changed []bool
}

// NewTree returns an empty tree whose leaves are built with the given
// method (zero selects MethodLayered, Algorithm 1); Extend (or the first
// Refresh) covers the dataset.
func NewTree(method Method) *Tree {
	if method == 0 {
		method = MethodLayered
	}
	return &Tree{method: method}
}

// Len returns the dataset length the tree currently covers.
func (t *Tree) Len() int { return t.n }

// DirtyLeaves returns how many leaves the next Refresh will rebuild.
func (t *Tree) DirtyLeaves() int {
	dirty := 0
	for i := range t.leaves {
		if t.leaves[i].core == nil {
			dirty++
		}
	}
	return dirty
}

// Extend grows the tree's coverage to a dataset of n samples, marking the
// leaves that gained samples dirty: the partial tail leaf it grows into and
// every new leaf after it. Sealed leaves keep their cached coresets. n below
// the current coverage resets the tree entirely — the datasets this
// summarizes are append-only, so a shrink means the caller replaced the
// dataset and no cache can be trusted.
func (t *Tree) Extend(n int) {
	if n < t.n {
		t.leaves, t.levels, t.n = nil, nil, 0
	}
	if n == t.n {
		return
	}
	old := t.leaves
	leaves := make([]treeLeaf, (n+LeafSize-1)/LeafSize)
	for i := range leaves {
		lo := i * LeafSize
		hi := lo + LeafSize
		if hi > n {
			hi = n
		}
		leaves[i] = treeLeaf{lo: lo, hi: hi}
		// A leaf keeps its cache only when its range is untouched; the old
		// tail leaf's hi moves when it absorbs appended samples, which
		// naturally re-dirties it.
		if i < len(old) && old[i].lo == lo && old[i].hi == hi {
			leaves[i].core = old[i].core
		}
	}
	t.leaves, t.n = leaves, n
}

// Invalidate marks every leaf overlapping the sample index range [lo, hi)
// dirty, forcing the next Refresh to rebuild them. It is the escape hatch
// for callers that mutate summarized samples out of band (mirroring
// world.InvalidateIndex), and gives benchmarks a repeatable dirty state.
func (t *Tree) Invalidate(lo, hi int) {
	if hi <= lo {
		return
	}
	for i := range t.leaves {
		if t.leaves[i].hi > lo && t.leaves[i].lo < hi {
			t.leaves[i].core = nil
		}
	}
}

// Refresh returns a coreset of budget items summarizing d, rebuilding only
// the dirty leaves and the merge nodes on their root paths; everything else
// is served from cache. The tree auto-extends to d's length first, and a
// budget change invalidates every cache (leaf targets and reduce sizes
// depend on it). rng must be a stream derived for this tree (e.g.
// rng.Derive("coreset-tree")): all randomness flows through per-leaf and
// per-node derived streams, so a leaf rebuilt at any refresh draws exactly
// the streams it would have drawn at any other — results depend on the data
// and the scorer, never on cache history.
func (t *Tree) Refresh(d *dataset.Dataset, budget int, score LossScorer, rng *simrand.Rand) (*Coreset, RefreshStats, error) {
	var stats RefreshStats
	if budget <= 0 {
		return nil, stats, fmt.Errorf("coreset: non-positive tree budget %d", budget)
	}
	if d == nil || d.Len() == 0 {
		return nil, stats, fmt.Errorf("coreset: refreshing tree over empty dataset")
	}
	t.Extend(d.Len())
	if budget != t.budget {
		for i := range t.leaves {
			t.leaves[i].core = nil
		}
		t.budget = budget
	}

	// Rebuild dirty leaves.
	if cap(t.changed) < len(t.leaves) {
		t.changed = make([]bool, len(t.leaves))
	}
	changed := t.changed[:len(t.leaves)]
	for i := range t.leaves {
		if t.leaves[i].core != nil {
			changed[i] = false
			stats.LeavesCached++
			continue
		}
		core, err := t.buildLeaf(d, i, budget, score, rng)
		if err != nil {
			return nil, stats, err
		}
		t.leaves[i].core = core
		changed[i] = true
		stats.LeavesRebuilt++
	}

	// Merge up, reusing every cached node whose children are unchanged. An
	// unchanged node carries the same *Coreset pointer as the previous
	// refresh, so "neither child changed" certifies the cached parent at the
	// same (level, index) — pairing is index-stable — still summarizes
	// exactly these children. The odd tail node propagates unmerged.
	cur := make([]*Coreset, len(t.leaves))
	for i := range t.leaves {
		cur[i] = t.leaves[i].core
	}
	prev := t.levels
	levels := make([][]*Coreset, 0, len(prev)+1)
	levels = append(levels, cur)
	for lvl := 1; len(cur) > 1; lvl++ {
		next := make([]*Coreset, (len(cur)+1)/2)
		nextChanged := make([]bool, len(next))
		for i := range next {
			a := cur[2*i]
			if 2*i+1 >= len(cur) {
				next[i] = a
				nextChanged[i] = changed[2*i]
				continue
			}
			b := cur[2*i+1]
			if !changed[2*i] && !changed[2*i+1] &&
				lvl < len(prev) && i < len(prev[lvl]) && prev[lvl][i] != nil {
				next[i] = prev[lvl][i]
				continue
			}
			merged, err := MergeReduce(a, b, budget, rng.DeriveIndexed(fmt.Sprintf("tree-merge-%d", lvl), i))
			if err != nil {
				return nil, stats, fmt.Errorf("coreset: tree merge at level %d node %d: %w", lvl, i, err)
			}
			next[i] = merged
			nextChanged[i] = true
			stats.TreeMerges++
		}
		levels = append(levels, next)
		cur, changed = next, nextChanged
	}
	t.levels = levels
	return cur[0], stats, nil
}

// buildLeaf constructs one leaf's coreset: the whole leaf when it fits the
// target, otherwise a loss-scored build over a bounded uniform pool,
// rescaled so the result carries the leaf's exact total weight.
func (t *Tree) buildLeaf(d *dataset.Dataset, idx, budget int, score LossScorer, rng *simrand.Rand) (*Coreset, error) {
	lf := t.leaves[idx]
	leafLen := lf.hi - lf.lo
	target := LeafTarget
	if budget < target {
		target = budget
	}
	lrng := rng.DeriveIndexed("tree-leaf", idx)
	if leafLen <= target {
		// The leaf is its own 0-coreset: no pool, no scoring.
		out := dataset.New(leafLen)
		for i := lf.lo; i < lf.hi; i++ {
			it := d.At(i)
			out.Add(it.Sample, it.Weight)
		}
		return FromDataset(out), nil
	}
	var leafTotal float64
	indices := make([]int, leafLen)
	for i := range indices {
		indices[i] = lf.lo + i
		leafTotal += d.At(lf.lo + i).Weight
	}
	if leafLen > LeafSample {
		perm := lrng.Perm(leafLen)[:LeafSample]
		pool := make([]int, LeafSample)
		for i, p := range perm {
			pool[i] = lf.lo + p
		}
		indices = pool
	}
	base := d.Subset(indices)
	losses := score(base.Items())
	cs, err := BuildWith(t.method, base, losses, target, lrng.Derive("build"))
	if err != nil {
		return nil, fmt.Errorf("coreset: building leaf %d [%d,%d): %w", idx, lf.lo, lf.hi, err)
	}
	// Rescale so the leaf coreset represents the LEAF's weight, not just the
	// scored pool's.
	if poolTotal := base.TotalWeight(); poolTotal > 0 {
		if scale := leafTotal / poolTotal; scale != 1 {
			scaled := dataset.New(cs.Len())
			for _, it := range cs.Items() {
				scaled.Add(it.Sample, it.Weight*scale)
			}
			cs = FromDataset(scaled)
		}
	}
	return cs, nil
}
