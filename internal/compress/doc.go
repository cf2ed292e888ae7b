// Package compress implements the model compression used during exchanges:
// top-k sparsification [22] with index–value pair encoding [23]. The
// compression level is expressed as ψ = 1/φ ∈ [0, 1], the reciprocal of the
// paper's compression ratio φ = S/S_c: ψ = 0 sends nothing, ψ = 1 sends the
// model uncompressed.
//
// The top-k cut is the k-th largest magnitude, found by O(n) selection
// rather than a sort; ties at the cut are kept in index order. TopK cuts one
// vector once; a DeltaPlan holds one model's delta from a shared base and
// cuts it at as many levels as a chat samples, reusing its storage.
package compress
