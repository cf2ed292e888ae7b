package coreset

import (
	"fmt"
	"math"

	"lbchat/internal/dataset"
	"lbchat/internal/simrand"
)

// Coreset is a weighted subset of a dataset. Weights are the coreset weights
// w_C(d) of Eq. (4), not the original sample weights.
type Coreset struct {
	data *dataset.Dataset
}

// Data returns the coreset's weighted samples as a dataset.
func (c *Coreset) Data() *dataset.Dataset { return c.data }

// Len returns the number of samples in the coreset.
func (c *Coreset) Len() int { return c.data.Len() }

// Items returns the coreset's weighted samples.
func (c *Coreset) Items() []dataset.Weighted { return c.data.Items() }

// TotalWeight returns the sum of coreset weights, which approximates the
// total weight of the summarized dataset.
func (c *Coreset) TotalWeight() float64 { return c.data.TotalWeight() }

// FromDataset wraps an existing weighted dataset as a coreset (weights are
// taken as w_C). Used by tests and by merge operations.
func FromDataset(d *dataset.Dataset) *Coreset { return &Coreset{data: d} }

// Layering describes how Algorithm 1 partitioned a dataset, exposed for
// inspection and testing.
type Layering struct {
	// CenterLoss is f(x; d̃), the smallest per-sample loss.
	CenterLoss float64
	// Radius is R = f(x; D)/|D|, the 0-th layer radius.
	Radius float64
	// Assignment[i] is the layer index of sample i.
	Assignment []int
	// NumLayers is the number of distinct layers (≤ log₂(|D|+1)+1).
	NumLayers int
}

// ComputeLayering partitions the dataset into concentric loss-rings around
// the best-explained sample (Algorithm 1, lines 1–6). losses[i] must be the
// current model's loss f(x; d_i) on sample i.
func ComputeLayering(d *dataset.Dataset, losses []float64) (*Layering, error) {
	n := d.Len()
	if n == 0 {
		return nil, fmt.Errorf("coreset: empty dataset")
	}
	if len(losses) != n {
		return nil, fmt.Errorf("coreset: %d losses for %d samples", len(losses), n)
	}
	center := math.Inf(1)
	var weightedTotal float64
	for i := 0; i < n; i++ {
		if losses[i] < center {
			center = losses[i]
		}
		weightedTotal += d.At(i).Weight * losses[i]
	}
	radius := weightedTotal / float64(n)
	if radius <= 0 {
		radius = 1e-12 // all-zero losses: everything lands in layer 0
	}
	maxLayer := int(math.Log2(float64(n)+1)) + 1
	layering := &Layering{CenterLoss: center, Radius: radius, Assignment: make([]int, n)}
	for i := 0; i < n; i++ {
		// Distance from the center in units of R. The paper's line 4/5
		// divides by R twice as printed; we apply the ratio once (see
		// DESIGN.md "intent-vs-text corrections").
		dist := (losses[i] - center) / radius
		layer := 0
		if dist > 1 {
			layer = int(math.Floor(math.Log2(dist))) + 1
		}
		if layer > maxLayer {
			layer = maxLayer
		}
		layering.Assignment[i] = layer
		if layer+1 > layering.NumLayers {
			layering.NumLayers = layer + 1
		}
	}
	return layering, nil
}

// Build runs Algorithm 1: layer the dataset by per-sample loss, then take a
// w(d)-weighted random sample from each layer, assigning the layer-preserving
// coreset weights of line 12. size is the total coreset budget |C|; the
// budget is split across layers proportionally to layer weight (each
// non-empty layer keeps at least one representative).
func Build(d *dataset.Dataset, losses []float64, size int, rng *simrand.Rand) (*Coreset, error) {
	if size <= 0 {
		return nil, fmt.Errorf("coreset: non-positive size %d", size)
	}
	layering, err := ComputeLayering(d, losses)
	if err != nil {
		return nil, err
	}
	n := d.Len()
	if size >= n {
		// Degenerate: the whole dataset is its own 0-coreset.
		out := dataset.New(n)
		for _, it := range d.Items() {
			out.Add(it.Sample, it.Weight)
		}
		return &Coreset{data: out}, nil
	}

	// Group samples per layer.
	layers := make([][]int, layering.NumLayers)
	layerWeight := make([]float64, layering.NumLayers)
	for i := 0; i < n; i++ {
		l := layering.Assignment[i]
		layers[l] = append(layers[l], i)
		layerWeight[l] += d.At(i).Weight
	}
	var totalWeight float64
	for _, w := range layerWeight {
		totalWeight += w
	}

	// Budget allocation: proportional to layer weight, ≥1 per non-empty
	// layer, never more than the layer population.
	alloc := allocateBudget(layers, layerWeight, totalWeight, size)

	out := dataset.New(size)
	for l, members := range layers {
		if len(members) == 0 || alloc[l] == 0 {
			continue
		}
		weights := make([]float64, len(members))
		for i, idx := range members {
			weights[i] = d.At(idx).Weight
		}
		picked := rng.WeightedSampleWithoutReplacement(weights, alloc[l])
		var selWeight float64
		for _, pi := range picked {
			selWeight += weights[pi]
		}
		if selWeight <= 0 {
			continue
		}
		// Line 12: w_C(d) = Σ_{D̂_j} w(d') / Σ_{Ĉ_j} w(d'), scaled by the
		// sample's own weight so the layer total is preserved exactly.
		scale := layerWeight[l] / selWeight
		for _, pi := range picked {
			it := d.At(members[pi])
			out.Add(it.Sample, it.Weight*scale)
		}
	}
	return &Coreset{data: out}, nil
}

// allocateBudget distributes the coreset budget across layers.
func allocateBudget(layers [][]int, layerWeight []float64, totalWeight float64, size int) []int {
	alloc := make([]int, len(layers))
	used := 0
	for l, members := range layers {
		if len(members) == 0 {
			continue
		}
		share := 0
		if totalWeight > 0 {
			share = int(math.Floor(layerWeight[l] / totalWeight * float64(size)))
		}
		if share < 1 {
			share = 1
		}
		if share > len(members) {
			share = len(members)
		}
		alloc[l] = share
		used += share
	}
	// Trim overshoot from the most-allocated layers; distribute any slack to
	// layers with remaining population, largest weight first.
	for used > size {
		worst, biggest := -1, 0
		for l, a := range alloc {
			if a > biggest {
				worst, biggest = l, a
			}
		}
		if worst < 0 || biggest <= 1 {
			break
		}
		alloc[worst]--
		used--
	}
	for used < size {
		best := -1
		var bestW float64
		for l, members := range layers {
			if alloc[l] < len(members) && (best == -1 || layerWeight[l] > bestW) {
				best, bestW = l, layerWeight[l]
			}
		}
		if best == -1 {
			break
		}
		alloc[best]++
		used++
	}
	return alloc
}
