// Package coreset implements the paper's coreset machinery: layered-sampling
// construction (Algorithm 1, after [15]), weight assignment inside the
// coreset, the ε-coreset property check of Definition II.2, and the
// merge-plus-reduce updating used when local datasets expand quickly
// (§III-D, after [10]).
//
// A coreset here is a small weighted subset of a driving dataset whose
// weighted loss approximates the full dataset's weighted loss for models
// near the current one — cheap enough to ship over a vehicular link
// (~0.6 MB for 150 frames) yet informative enough to price a peer's model.
//
// Tree is how the engine refreshes one: a merge-and-reduce partition tree
// whose fixed 256-sample leaves cache their Algorithm-1 summaries, so a
// refresh rescans only the leaves dirtied since the last one (DESIGN.md §16).
// Nothing outside this package calls Build or BuildWith (internal/repolint);
// the full rebuild over a whole dataset is internal/core's test oracle.
package coreset
