package core

import (
	"math"
	"testing"

	"lbchat/internal/coreset"
	"lbchat/internal/dataset"
)

// expireCoreset forces the next EnsureCoreset past the freshness check
// without advancing engine time.
func expireCoreset(v *Vehicle) { v.CoreBuiltAt = math.Inf(-1) }

func TestIncrementalRefreshBuildsAndCachesTree(t *testing.T) {
	eng, cfg := tinyEnv(t, 2, true)
	v := eng.Vehicles[0]
	cs, err := eng.EnsureCoreset(v)
	if err != nil {
		t.Fatal(err)
	}
	if v.Tree == nil {
		t.Fatal("incremental arm did not create the partition tree")
	}
	if cs.Len() == 0 || cs.Len() > cfg.CoresetSize {
		t.Fatalf("coreset size %d outside (0, %d]", cs.Len(), cfg.CoresetSize)
	}
	if math.Abs(cs.TotalWeight()-v.Data.TotalWeight()) > 1e-6*v.Data.TotalWeight() {
		t.Errorf("coreset weight %v, dataset weight %v", cs.TotalWeight(), v.Data.TotalWeight())
	}
	if got := v.Tree.DirtyLeaves(); got != 0 {
		t.Fatalf("dirty leaves after refresh = %d, want 0", got)
	}
	// With nothing dirtied, an expired re-ensure is a pure cache hit: the
	// tree hands back the same cached root.
	expireCoreset(v)
	again, err := eng.EnsureCoreset(v)
	if err != nil {
		t.Fatal(err)
	}
	if again != cs {
		t.Error("clean tree re-ensure rebuilt instead of serving the cached root")
	}
}

func TestAbsorbEmptyPeerCoreset(t *testing.T) {
	eng, _ := tinyEnv(t, 2, true)
	v := eng.Vehicles[0]
	if _, err := eng.EnsureCoreset(v); err != nil {
		t.Fatal(err)
	}
	before, coreBefore := v.Data.Len(), v.Core.Len()
	empty := coreset.FromDataset(dataset.New(0))
	if err := eng.AbsorbCoreset(v, empty); err != nil {
		t.Fatalf("absorbing an empty coreset: %v", err)
	}
	if v.Data.Len() != before {
		t.Errorf("empty absorb changed dataset length %d -> %d", before, v.Data.Len())
	}
	if v.Core.Len() != coreBefore {
		t.Errorf("empty absorb changed coreset length %d -> %d", coreBefore, v.Core.Len())
	}
	if got := v.Tree.DirtyLeaves(); got != 0 {
		t.Errorf("empty absorb dirtied %d leaves", got)
	}
}

func TestAbsorbMarksAppendedLeavesDirty(t *testing.T) {
	eng, _ := tinyEnv(t, 2, true)
	va, vb := eng.Vehicles[0], eng.Vehicles[1]
	csB, err := eng.EnsureCoreset(vb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EnsureCoreset(va); err != nil {
		t.Fatal(err)
	}
	// Precondition: the absorb lands on a vehicle with no dirty leaves.
	if got := va.Tree.DirtyLeaves(); got != 0 {
		t.Fatalf("dirty leaves before absorb = %d, want 0", got)
	}
	before := va.Data.Len()
	if err := eng.AbsorbCoreset(va, csB); err != nil {
		t.Fatal(err)
	}
	if va.Tree.Len() != va.Data.Len() {
		t.Fatalf("tree covers %d samples, dataset has %d", va.Tree.Len(), va.Data.Len())
	}
	// Exactly the leaves overlapping the appended range [before, len) are
	// dirty; sealed leaves before it keep their caches.
	const ls = coreset.LeafSize
	wantDirty := (va.Data.Len()+ls-1)/ls - before/ls
	if got := va.Tree.DirtyLeaves(); got != wantDirty {
		t.Fatalf("dirty leaves after absorb = %d, want %d", got, wantDirty)
	}
	// The next refresh clears them and summarizes the expanded dataset.
	expireCoreset(va)
	cs, err := eng.EnsureCoreset(va)
	if err != nil {
		t.Fatal(err)
	}
	if got := va.Tree.DirtyLeaves(); got != 0 {
		t.Fatalf("dirty leaves after refresh = %d, want 0", got)
	}
	if math.Abs(cs.TotalWeight()-va.Data.TotalWeight()) > 1e-6*va.Data.TotalWeight() {
		t.Errorf("refreshed coreset weight %v, expanded dataset weight %v",
			cs.TotalWeight(), va.Data.TotalWeight())
	}
}

func TestAbsorbPartialSalvageExtendsTree(t *testing.T) {
	eng, _ := tinyEnv(t, 2, true)
	va, vb := eng.Vehicles[0], eng.Vehicles[1]
	csB, err := eng.EnsureCoreset(vb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.EnsureCoreset(va); err != nil {
		t.Fatal(err)
	}
	salvaged := salvageCoreset(csB, csB.Len()/2)
	if salvaged == nil || salvaged.Len() != csB.Len()/2 {
		t.Fatalf("salvage of %d frames returned %v", csB.Len()/2, salvaged)
	}
	before := va.Data.Len()
	if err := eng.AbsorbCoreset(va, salvaged); err != nil {
		t.Fatal(err)
	}
	if va.Data.Len() != before+salvaged.Len() {
		t.Fatalf("dataset %d -> %d after absorbing %d salvaged frames",
			before, va.Data.Len(), salvaged.Len())
	}
	if va.Tree.Len() != va.Data.Len() {
		t.Fatalf("tree covers %d samples, dataset has %d", va.Tree.Len(), va.Data.Len())
	}
	if got := va.Tree.DirtyLeaves(); got == 0 {
		t.Fatal("partial-salvage absorb left no leaf dirty")
	}
	expireCoreset(va)
	if _, err := eng.EnsureCoreset(va); err != nil {
		t.Fatalf("refresh after salvage absorb: %v", err)
	}
}

func TestCoresetArmsEquivalentQuality(t *testing.T) {
	// The tree refresh and the full Algorithm-1 rebuild (fullRebuildCoreset,
	// the oracle) are distinct sampling processes, so they produce different
	// coresets — but equal-quality ones: both carry the dataset's exact
	// total weight and both estimate the policy loss proxy to comparable
	// relative error (DESIGN.md §16).
	inc, _ := tinyEnv(t, 2, true)
	full, _ := tinyEnv(t, 2, true)
	for i := range inc.Vehicles {
		vi, vf := inc.Vehicles[i], full.Vehicles[i]
		// The production refresh draws only from derived streams: the
		// vehicle's main stream must be where an untouched twin's is.
		csI, err := inc.EnsureCoreset(vi)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := vi.rng.Float64(), vf.rng.Float64(); got != want {
			t.Errorf("vehicle %d: EnsureCoreset advanced the vehicle's main stream", i)
		}
		csF, err := fullRebuildCoreset(full, vf)
		if err != nil {
			t.Fatal(err)
		}
		if vf.Tree != nil {
			t.Errorf("vehicle %d: the full-rebuild oracle built a partition tree", i)
		}
		if math.Abs(csI.TotalWeight()-csF.TotalWeight()) > 1e-6*csF.TotalWeight() {
			t.Errorf("vehicle %d: arm weight totals diverge: %v vs %v",
				i, csI.TotalWeight(), csF.TotalWeight())
		}
		proxy := func(v *Vehicle) coreset.LossFunc {
			return func(items []dataset.Weighted) float64 {
				losses := v.Policy.PerSampleLosses(items)
				var acc, w float64
				for j, it := range items {
					acc += it.Weight * losses[j]
					w += it.Weight
				}
				if w == 0 {
					return 0
				}
				return acc / w
			}
		}
		errI := coreset.ApproximationError(csI, vi.Data, proxy(vi))
		errF := coreset.ApproximationError(csF, vf.Data, proxy(vf))
		const bound = 0.35
		if errI > bound || errF > bound {
			t.Errorf("vehicle %d: loss-proxy error out of bounds: incremental %.3f, full %.3f",
				i, errI, errF)
		}
		if math.Abs(errI-errF) > bound {
			t.Errorf("vehicle %d: arm loss-proxy errors diverge: %.3f vs %.3f", i, errI, errF)
		}
	}
}
