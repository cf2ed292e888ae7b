// Package tensor implements the dense float64 tensors underlying the neural
// network substrate. It is intentionally small: shapes, elementwise
// arithmetic and matrix multiplication — everything the driving model
// requires and nothing more.
//
// Matrix multiplication optionally fans out across row blocks
// (SetWorkers); results are bit-identical at every worker count because
// each row of the output is computed by exactly one worker with a fixed
// serial inner loop.
//
// The matmuls that skip zeros list a row's nonzero coefficients once and
// gather the output from them; Rows holds such lists for an input that is
// sparse to begin with (the policy's BEV). The screens, the gather, the
// add-row pass, the ReLU's choice, the sums of squares and the Adam update
// have two bit-identical forms: AVX2
// assembly (kernels_amd64.s), used on an amd64 CPU that has it, and the
// plain Go loops of kernels_generic.go, used everywhere else and under the
// purego build tag. The CPU chooses; no option does.
package tensor
