// Coreset analysis: how well does Algorithm 1 summarize a driving dataset?
//
// The example collects a real driving dataset, then sweeps the coreset
// budget |C| and reports the ε of Definition II.2 realized on the trained
// model — |f(x;C) − f(x;D)| / f(x;D) — for layered sampling vs a uniform
// random subset, plus the wire size of each coreset. It closes with the
// merge-and-reduce path of §III-D, checking that the loss estimate survives
// a chain of merges at constant size.
//
//	go run ./examples/coreset-analysis
package main

import (
	"fmt"
	"math"
	"os"

	"lbchat/internal/bev"
	"lbchat/internal/coreset"
	"lbchat/internal/dataset"
	"lbchat/internal/model"
	"lbchat/internal/simrand"
	"lbchat/internal/world"
)

func main() {
	a, err := analyse(23)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coreset-analysis: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("Full-dataset loss f(x;D) = %.5f over %d frames\n\n", a.fullLoss, a.frames)
	fmt.Printf("%8s %12s %14s %14s\n", "|C|", "wire size", "layered ε", "uniform ε")
	for _, b := range a.budgets {
		fmt.Printf("%8d %9d kB %14.4f %14.4f\n", b.size, b.size*4000/1000, b.layered, b.uniform)
	}
	fmt.Printf("\nMerge-and-reduce chain (|C| held at %d):\n", chainSize)
	for i, l := range a.chain {
		fmt.Printf("  after part %d: |C| = %3d, f(x;C) = %.5f (ε = %.3f)\n",
			i+1, l.size, l.loss, math.Abs(l.loss-a.fullLoss)/a.fullLoss)
	}
}

// budget is one row of the |C| sweep: the mean ε of layered sampling and of
// a uniform subset over the trials, and the largest coreset either built.
type budget struct {
	size, largest    int
	layered, uniform float64
}

// link is the merge-and-reduce accumulator after one more part.
type link struct {
	size int
	loss float64
}

// analysis is everything the example reports.
type analysis struct {
	frames   int
	fullLoss float64
	budgets  []budget
	chain    []link
}

// chainSize is the coreset size the merge-and-reduce chain holds.
const chainSize = 150

// analyse collects 1500 frames on the world seeded by seed, trains a policy
// on them, and measures the |C| sweep and the merge-and-reduce chain.
func analyse(seed uint64) (*analysis, error) {
	m, err := world.NewMap(world.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rng := simrand.New(seed)
	w, err := world.New(m, world.SpawnConfig{Experts: 1, BackgroundCars: 30, Pedestrians: 120}, rng)
	if err != nil {
		return nil, err
	}
	mcfg := model.DefaultConfig()
	ras := bev.NewRasterizer(bev.DefaultConfig(), m)
	data := world.CollectDataset(w, ras, mcfg.NumWaypoints, 1500, 0.5)[0]

	pol, err := model.New(mcfg, 1)
	if err != nil {
		return nil, err
	}
	trng := rng.Derive("train")
	for step := 0; step < 600; step++ {
		pol.TrainStep(data.SampleBatch(16, trng))
	}
	a := &analysis{frames: data.Len(), fullLoss: pol.Loss(data.Items())}

	losses := pol.PerSampleLosses(data.Items())
	lossFn := func(items []dataset.Weighted) float64 { return pol.Loss(items) }
	srng := rng.Derive("sweep")
	for _, size := range []int{15, 50, 150, 500, 1500} {
		const trials = 8
		b := budget{size: size}
		for trial := 0; trial < trials; trial++ {
			cs, err := coreset.Build(data, losses, size, srng)
			if err != nil {
				return nil, err
			}
			b.layered += coreset.ApproximationError(cs, data, lossFn) / trials

			perm := srng.Perm(data.Len())[:min(size, data.Len())]
			sub := coreset.FromDataset(data.Subset(perm))
			b.uniform += coreset.ApproximationError(sub, data, lossFn) / trials
			b.largest = max(b.largest, cs.Len(), sub.Len())
		}
		a.budgets = append(a.budgets, b)
	}

	// Merge-and-reduce: chain 6 merges at constant size and watch the
	// estimate.
	mrng := rng.Derive("merge")
	parts := 6
	per := data.Len() / parts
	var acc *coreset.Coreset
	for i := 0; i < parts; i++ {
		idx := make([]int, 0, per)
		for j := i * per; j < (i+1)*per; j++ {
			idx = append(idx, j)
		}
		part := data.Subset(idx)
		partLosses := pol.PerSampleLosses(part.Items())
		cs, err := coreset.Build(part, partLosses, chainSize, mrng)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = cs
		} else if acc, err = coreset.MergeReduce(acc, cs, chainSize, mrng); err != nil {
			return nil, err
		}
		a.chain = append(a.chain, link{size: acc.Len(), loss: pol.Loss(acc.Items())})
	}
	return a, nil
}
