package main

import "fmt"

// Example runs the analysis and pins what holds whatever the seed: each
// budget's largest coreset has exactly |C| frames, a coreset as large as
// the dataset is exact (ε = 0 for both samplers), and merge-and-reduce
// holds the chain at chainSize. The ε values in between depend on the draw and
// are printed by the program, not pinned here.
func Example() {
	a, err := analyse(23)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d frames\n", a.frames)
	for _, b := range a.budgets {
		fmt.Printf("|C| = %4d: largest coreset %4d frames\n", b.size, b.largest)
	}
	full := a.budgets[len(a.budgets)-1]
	fmt.Printf("|C| = |D|: layered ε = %.4f, uniform ε = %.4f\n", full.layered, full.uniform)
	for i, l := range a.chain {
		fmt.Printf("after part %d: |C| = %d\n", i+1, l.size)
	}
	// Output:
	// 1500 frames
	// |C| =   15: largest coreset   15 frames
	// |C| =   50: largest coreset   50 frames
	// |C| =  150: largest coreset  150 frames
	// |C| =  500: largest coreset  500 frames
	// |C| = 1500: largest coreset 1500 frames
	// |C| = |D|: layered ε = 0.0000, uniform ε = 0.0000
	// after part 1: |C| = 150
	// after part 2: |C| = 150
	// after part 3: |C| = 150
	// after part 4: |C| = 150
	// after part 5: |C| = 150
	// after part 6: |C| = 150
}
