package coreset

import (
	"math"
	"testing"

	"lbchat/internal/dataset"
	"lbchat/internal/simrand"
)

// treeScorer mirrors syntheticDataset's loss landscape: losses are a pure
// function of the sample's first target, so any subset scores consistently.
func treeScorer(items []dataset.Weighted) []float64 {
	out := make([]float64, len(items))
	for i, it := range items {
		out[i] = 0.01 + 0.001*it.Sample.Targets[0]
	}
	return out
}

// treeRNG returns the refresh stream a caller would pass to Refresh. A fresh
// derivation per call matches the engine's v.rng.Derive("coreset-tree"):
// derivations are stateless, so every refresh sees identical streams.
func treeRNG() *simrand.Rand { return simrand.New(42).Derive("coreset-tree") }

func sameCoreset(t *testing.T, a, b *Coreset) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("coreset lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i, ita := range a.Items() {
		itb := b.Data().At(i)
		if ita.Sample.Targets[0] != itb.Sample.Targets[0] || ita.Weight != itb.Weight {
			t.Fatalf("item %d differs: (%v, w=%v) vs (%v, w=%v)",
				i, ita.Sample.Targets[0], ita.Weight, itb.Sample.Targets[0], itb.Weight)
		}
	}
}

func TestTreeExtendPartition(t *testing.T) {
	tr := NewTree(0)
	tr.Extend(600)
	if got, want := len(tr.leaves), 3; got != want {
		t.Fatalf("%d leaves, want %d", got, want)
	}
	if got, want := tr.DirtyLeaves(), 3; got != want {
		t.Fatalf("DirtyLeaves = %d, want %d (all new leaves dirty)", got, want)
	}
	if tr.Len() != 600 {
		t.Fatalf("Len = %d, want 600", tr.Len())
	}
	// Leaf ranges tile [0, n) in LeafSize steps with a partial tail.
	want := [][2]int{{0, 256}, {256, 512}, {512, 600}}
	for i, w := range want {
		if tr.leaves[i].lo != w[0] || tr.leaves[i].hi != w[1] {
			t.Fatalf("leaf %d = [%d,%d), want [%d,%d)",
				i, tr.leaves[i].lo, tr.leaves[i].hi, w[0], w[1])
		}
	}
	// Same length is a no-op; shorter resets the tree (append-only contract).
	tr.Extend(600)
	if len(tr.leaves) != 3 {
		t.Fatalf("no-op Extend changed leaf count to %d", len(tr.leaves))
	}
	tr.Extend(100)
	if tr.Len() != 100 || len(tr.leaves) != 1 || tr.DirtyLeaves() != 1 {
		t.Fatalf("shrink should reset: len=%d leaves=%d dirty=%d",
			tr.Len(), len(tr.leaves), tr.DirtyLeaves())
	}
}

func TestTreeRefreshStatsAndCaching(t *testing.T) {
	d, _ := syntheticDataset(1024, unitWeights)
	tr := NewTree(0)
	cs, stats, err := tr.Refresh(d, 150, treeScorer, treeRNG())
	if err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	if cs.Len() == 0 || cs.Len() > 150 {
		t.Fatalf("root coreset size %d outside (0, 150]", cs.Len())
	}
	if stats.LeavesRebuilt != 4 || stats.LeavesCached != 0 {
		t.Fatalf("first refresh stats = %+v, want 4 rebuilt / 0 cached", stats)
	}
	if stats.TreeMerges != 3 {
		t.Fatalf("first refresh merges = %d, want 3 (full binary tree over 4 leaves)", stats.TreeMerges)
	}

	// A second refresh over unchanged data is a pure cache hit.
	cs2, stats2, err := tr.Refresh(d, 150, treeScorer, treeRNG())
	if err != nil {
		t.Fatalf("second Refresh: %v", err)
	}
	if stats2.LeavesRebuilt != 0 || stats2.LeavesCached != 4 || stats2.TreeMerges != 0 {
		t.Fatalf("cached refresh stats = %+v, want 0/4/0", stats2)
	}
	if cs2 != cs {
		t.Fatalf("cached refresh should return the same root coreset pointer")
	}
}

func TestTreeRefreshRebuildsOnlyAppendedLeaves(t *testing.T) {
	d, _ := syntheticDataset(1024, unitWeights)
	tr := NewTree(0)
	if _, _, err := tr.Refresh(d, 150, treeScorer, treeRNG()); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	// Append half a leaf: only the new tail leaf is dirty (1024 is a leaf
	// boundary), and only its root path re-merges.
	for i := 0; i < 128; i++ {
		d.Add(dataset.Sample{Targets: []float64{float64(1024 + i)}}, 1)
	}
	_, stats, err := tr.Refresh(d, 150, treeScorer, treeRNG())
	if err != nil {
		t.Fatalf("Refresh after append: %v", err)
	}
	if stats.LeavesRebuilt != 1 || stats.LeavesCached != 4 {
		t.Fatalf("append refresh stats = %+v, want 1 rebuilt / 4 cached", stats)
	}
	// 5 leaves: the new leaf's path re-merges at the level pairing it with
	// the cached left subtree; the 4-leaf left side is fully cached.
	if stats.TreeMerges == 0 || stats.TreeMerges > 2 {
		t.Fatalf("append refresh merges = %d, want 1-2 (dirty root path only)", stats.TreeMerges)
	}
}

func TestTreeRefreshMatchesColdRebuild(t *testing.T) {
	// Incremental refreshes must be cache-history independent: a tree that
	// grew in stages and a cold tree over the final dataset produce
	// identical coresets, because all randomness flows through derived
	// streams keyed by leaf/node position.
	d, _ := syntheticDataset(600, unitWeights)
	warm := NewTree(0)
	if _, _, err := warm.Refresh(d, 150, treeScorer, treeRNG()); err != nil {
		t.Fatalf("warm Refresh: %v", err)
	}
	for i := 0; i < 400; i++ {
		d.Add(dataset.Sample{Targets: []float64{float64(600 + i)}}, 1)
	}
	warm.Extend(d.Len())
	warmCS, warmStats, err := warm.Refresh(d, 150, treeScorer, treeRNG())
	if err != nil {
		t.Fatalf("warm second Refresh: %v", err)
	}
	if warmStats.LeavesCached == 0 {
		t.Fatalf("warm refresh used no cache: %+v", warmStats)
	}

	cold := NewTree(0)
	coldCS, coldStats, err := cold.Refresh(d, 150, treeScorer, treeRNG())
	if err != nil {
		t.Fatalf("cold Refresh: %v", err)
	}
	if coldStats.LeavesCached != 0 {
		t.Fatalf("cold refresh claims cached leaves: %+v", coldStats)
	}
	sameCoreset(t, warmCS, coldCS)
}

func TestTreeInvalidate(t *testing.T) {
	d, _ := syntheticDataset(1024, unitWeights)
	tr := NewTree(0)
	if _, _, err := tr.Refresh(d, 150, treeScorer, treeRNG()); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	tr.Invalidate(300, 520) // overlaps leaves [256,512) and [512,768)
	if got := tr.DirtyLeaves(); got != 2 {
		t.Fatalf("DirtyLeaves after Invalidate = %d, want 2", got)
	}
	_, stats, err := tr.Refresh(d, 150, treeScorer, treeRNG())
	if err != nil {
		t.Fatalf("Refresh after Invalidate: %v", err)
	}
	if stats.LeavesRebuilt != 2 || stats.LeavesCached != 2 {
		t.Fatalf("post-invalidate stats = %+v, want 2 rebuilt / 2 cached", stats)
	}
	// An empty or out-of-range span dirties nothing.
	tr.Invalidate(2000, 3000)
	tr.Invalidate(100, 100)
	if got := tr.DirtyLeaves(); got != 0 {
		t.Fatalf("DirtyLeaves after no-op Invalidates = %d, want 0", got)
	}
}

func TestTreeBudgetChangeInvalidatesAll(t *testing.T) {
	d, _ := syntheticDataset(1024, unitWeights)
	tr := NewTree(0)
	if _, _, err := tr.Refresh(d, 150, treeScorer, treeRNG()); err != nil {
		t.Fatalf("Refresh: %v", err)
	}
	_, stats, err := tr.Refresh(d, 100, treeScorer, treeRNG())
	if err != nil {
		t.Fatalf("Refresh with new budget: %v", err)
	}
	if stats.LeavesRebuilt != 4 || stats.LeavesCached != 0 {
		t.Fatalf("budget-change stats = %+v, want full rebuild", stats)
	}
}

func TestTreeRefreshPreservesTotalWeight(t *testing.T) {
	for _, n := range []int{100, 256, 600, 1024, 2500} {
		d, _ := syntheticDataset(n, func(i int) float64 { return 1 + float64(i%5) })
		tr := NewTree(0)
		cs, _, err := tr.Refresh(d, 150, treeScorer, treeRNG())
		if err != nil {
			t.Fatalf("n=%d: Refresh: %v", n, err)
		}
		if got, want := cs.TotalWeight(), d.TotalWeight(); math.Abs(got-want) > 1e-6*want {
			t.Fatalf("n=%d: coreset total weight %v, dataset %v", n, got, want)
		}
	}
}

func TestTreeRefreshErrors(t *testing.T) {
	d, _ := syntheticDataset(100, unitWeights)
	tr := NewTree(0)
	if _, _, err := tr.Refresh(d, 0, treeScorer, treeRNG()); err == nil {
		t.Fatal("Refresh with zero budget should fail")
	}
	if _, _, err := tr.Refresh(dataset.New(0), 150, treeScorer, treeRNG()); err == nil {
		t.Fatal("Refresh over empty dataset should fail")
	}
	if _, _, err := tr.Refresh(nil, 150, treeScorer, treeRNG()); err == nil {
		t.Fatal("Refresh over nil dataset should fail")
	}
}

// TestTreeConfigDefaults: a zero method selects Algorithm 1, an explicit one
// is kept.
func TestTreeConfigDefaults(t *testing.T) {
	if got := NewTree(0).method; got != MethodLayered {
		t.Fatalf("zero method resolved to %v, want MethodLayered", got)
	}
	if got := NewTree(MethodUniform).method; got != MethodUniform {
		t.Fatalf("explicit method resolved to %v, want MethodUniform", got)
	}
}
