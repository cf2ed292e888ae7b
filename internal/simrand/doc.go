// Package simrand provides deterministic, splittable random number
// generation for the simulator.
//
// Every stochastic component in the repository draws from an explicit
// *simrand.Rand so that a whole experiment is reproducible bit-for-bit from a
// single root seed. Streams are derived by name (Derive) so that adding a new
// consumer does not perturb the draws seen by existing consumers — a property
// plain sequential seeding does not have.
//
// A stream is math/rand's rand.Rand over the package's own source, which
// returns exactly the sequence of rand.NewSource(seed) for every seed but
// costs only what it draws. math/rand's source is an additive
// lagged-Fibonacci generator over 607 words, seeded by 1 841 steps of the
// LCG x ← 48271·x mod (2³¹−1); seeding it takes ≈ 14 µs and 4.9 KB, while
// most streams here draw a handful of values. Three identities remove that
// cost:
//
//   - Seeding by multiplication. The LCG's n-th step is 48271ⁿ·x₀ mod
//     (2³¹−1): one multiply by an init-time power and a branch-free
//     Mersenne fold, no division. Word i of the initial state is
//     cooked[i] ^ x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ, with the seed
//     normalised as math/rand does (mod 2³¹−1, negatives lifted, 0 →
//     89482311).
//   - Closed-form early draws. For k ≤ 273 (the generator's tap) the k-th
//     draw is w[334−k] + w[607−k], two words no earlier draw has written,
//     so the first 273 draws need six multiplies each and no state. The
//     274th draw builds the 607 words, replays the first 273 sums into them
//     and continues as math/rand does.
//   - cooked derived, not copied. math/rand's private table is solved for
//     at init from the first 607 draws of rand.NewSource(1), the package's
//     one use of it: draws past the tap give w[(334−k) mod 607] = oₖ −
//     oₖ₋₂₇₃, the earlier ones w[334−k] = oₖ − w[607−k], and XOR-ing off
//     seed 1's LCG bits leaves the table.
//
// TestSourceMatchesMathRand and FuzzSourceMatchesMathRand hold the source
// to rand.NewSource as their oracle, draw for draw and through every
// rand.Rand method the package calls.
package simrand
