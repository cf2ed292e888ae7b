package main

// Example runs the quickstart end to end and pins its printed output. Every
// stream is seeded, so the engine's whole chat — data collection, local
// training, the coreset refreshes, value assessment, the φ fits, the Eq. (7)
// solve, the transfers and the Eq. (8) merges — must reproduce bit for bit;
// `go test ./examples/quickstart` turns the example into a regression test
// over the full stack.
func Example() {
	if err := run(); err != nil {
		panic(err)
	}
	// Output:
	// Collecting driving data for two vehicles (2 fps)...
	// Local training apart for 800 s, then the vehicles meet:
	//
	// t=800s A refreshes its coreset (Algorithm 1): |C| = 150
	//
	// t=800s B refreshes its coreset (Algorithm 1): |C| = 150
	//   coreset A → B: 600000 of 600000 bytes in 0.16 s
	//   coreset B → A: 600000 of 600000 bytes in 0.16 s
	//
	// Value assessment: f(x_A; C_B) = 0.0303, f(x_B; C_A) = 0.0423
	// φ_A samples: ψ [0.05 0.20 0.50 1.00] → loss on A's coreset [0.4991 0.2962 0.0090 0.0137]
	// φ_B samples: ψ [0.05 0.20 0.50 1.00] → loss on B's coreset [0.3665 0.2047 0.0160 0.0104]
	// Eq. (7) in the 14.7 s left: ψ_A = 0.50, ψ_B = 0.52; objective 0.0534, gains A ← 0.0199, B ← 0.0333
	//
	// A sends its model at ψ = 0.50 (26.0 MB)
	//   model A → B: 26000000 of 26000000 bytes in 7.07 s
	// B sends its model at ψ = 0.52 (27.0 MB)
	//   model B → A: 27040000 of 27040000 bytes in 7.36 s
	// t=815s Eq. (8) on B: w_self = 0.55, w_peer = 0.45
	// t=815s B absorbs 150 coreset frames into its dataset
	// t=815s Eq. (8) on A: w_self = 0.43, w_peer = 0.57
	// t=815s A absorbs 150 coreset frames into its dataset
	//
	// After the run, A's loss on B's coreset: 0.0130
}
