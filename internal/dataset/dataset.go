package dataset

import (
	"fmt"

	"lbchat/internal/simrand"
)

// Command is the high-level navigation command attached to each frame,
// supplied by the (simulated) navigation service.
type Command int

// High-level driving commands, mirroring the conditional imitation-learning
// command set the paper's model consumes.
const (
	CmdFollow Command = iota + 1
	CmdLeft
	CmdRight
	CmdStraight
)

// NumCommands is the number of distinct commands (and branched model heads).
const NumCommands = 4

// String returns the human-readable command name.
func (c Command) String() string {
	switch c {
	case CmdFollow:
		return "follow"
	case CmdLeft:
		return "left"
	case CmdRight:
		return "right"
	case CmdStraight:
		return "straight"
	default:
		return fmt.Sprintf("Command(%d)", int(c))
	}
}

// Valid reports whether c is a defined command.
func (c Command) Valid() bool { return c >= CmdFollow && c <= CmdStraight }

// Index returns the zero-based head index for the command.
func (c Command) Index() int { return int(c) - 1 }

// Sample is one training frame: a flattened binary bird's-eye-view tensor
// (one byte per cell, holding 0 or 1 — the paper's BEV is a sparse binary
// tensor), the active high-level command, and the expert's next waypoints
// expressed in the ego frame (normalized coordinates), flattened as
// x0,y0,x1,y1,...
//
// Samples are immutable once created: coresets and expanded datasets share
// the underlying payload slices freely.
type Sample struct {
	BEV     []uint8
	Command Command
	// Speed is the ego speed at frame time, normalized to [0, 1] by the
	// world's maximum speed. Waypoint spacing encodes the planned speed, so
	// the model needs the current speed as input to predict it (as the
	// paper's imitation-learning model [19] does).
	Speed float64
	// NavDist is the distance to the next maneuver point, normalized to
	// [0, 1] over the navigation horizon (1 = no upcoming maneuver). Real
	// navigation services announce "turn left in 120 m"; the distance tells
	// the model WHEN to execute the command it was given.
	NavDist float64
	// RedDist is the normalized distance to a red-light stop line ahead
	// (1 = no red light constrains the approach). Signal phase arrives over
	// V2I (SPaT), as it does for CARLA agents.
	RedDist float64
	Targets []float64
}

// Clone returns a deep copy of the sample.
func (s Sample) Clone() Sample {
	bev := make([]uint8, len(s.BEV))
	copy(bev, s.BEV)
	tgt := make([]float64, len(s.Targets))
	copy(tgt, s.Targets)
	return Sample{BEV: bev, Command: s.Command, Speed: s.Speed, NavDist: s.NavDist, RedDist: s.RedDist, Targets: tgt}
}

// WireSize returns the approximate transmission size of the sample in bytes:
// the BEV ships as a bitmask (the paper's BEV is a sparse binary tensor),
// the command as one byte, the speed and each waypoint coordinate as
// float32.
func (s Sample) WireSize() int {
	return (len(s.BEV)+7)/8 + 1 + 12 + 4*len(s.Targets)
}

// Weighted couples a sample with a weight. Inside a local dataset the weight
// is the original w(d); inside a coreset it is the coreset weight w_C(d).
type Weighted struct {
	Sample Sample
	Weight float64
}

// Dataset is a weighted collection of samples.
type Dataset struct {
	items []Weighted
	// cum caches SampleBatch's cumulative weights over a prefix of items:
	// cum[i] is the running sum, in index order, of the positive weights
	// among items[0..i] — simrand.WeightedIndex's total, stopped at i — and
	// clean ≤ len(cum) counts the cached items before the first NaN weight.
	// SampleBatch extends both over items appended since (Add, Absorb), and
	// SetWeight(i, …) truncates them at i.
	cum   []float64
	clean int
}

// New returns an empty dataset with capacity for hint samples.
func New(hint int) *Dataset {
	return &Dataset{items: make([]Weighted, 0, hint)}
}

// FromWeighted builds a dataset from existing weighted samples (copied
// shallowly: sample payloads are shared).
func FromWeighted(items []Weighted) *Dataset {
	ds := New(len(items))
	ds.items = append(ds.items, items...)
	return ds
}

// Add appends a sample with the given weight.
func (d *Dataset) Add(s Sample, weight float64) {
	d.items = append(d.items, Weighted{Sample: s, Weight: weight})
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.items) }

// At returns the i-th weighted sample.
func (d *Dataset) At(i int) Weighted { return d.items[i] }

// SetWeight updates the weight of the i-th sample.
func (d *Dataset) SetWeight(i int, w float64) {
	d.items[i].Weight = w
	if i < len(d.cum) {
		d.cum = d.cum[:i]
		d.clean = min(d.clean, i)
	}
}

// Items returns the underlying weighted samples. The returned slice and its
// elements are read-only: it must not be appended to, and a weight changes
// only through SetWeight, which keeps SampleBatch's cached sums current.
func (d *Dataset) Items() []Weighted { return d.items }

// TotalWeight returns the sum of all sample weights.
func (d *Dataset) TotalWeight() float64 {
	var acc float64
	for _, it := range d.items {
		acc += it.Weight
	}
	return acc
}

// Absorb appends every sample of other into d, assigning each the weight
// uniformWeight. This implements the paper's local-dataset expansion: the
// original weights w(d) of all samples in the expanded dataset are kept the
// same (§III-D).
func (d *Dataset) Absorb(other *Dataset, uniformWeight float64) {
	for _, it := range other.items {
		d.items = append(d.items, Weighted{Sample: it.Sample, Weight: uniformWeight})
	}
}

// SampleBatch draws a batch of k samples by weighted sampling with
// replacement: each draw is rng.WeightedIndex over the weights, falling back
// to a uniform rng.Intn when no weight is positive. It returns fewer than k
// only when the dataset is empty.
//
// The draws are rng.WeightedIndex's, bit for bit, without its two linear
// passes. Its scan returns the first positive-weight index whose running
// sum exceeds the one Float64 target; the cached sums are its own, in its
// order, up to the first NaN weight, whose addition poisons its running sum
// for every later index. So the first index of the NaN-free prefix whose
// cached sum exceeds the target — a binary search — is the index its scan
// returns, and no such index sends both to the last positive weight. A draw
// costs O(log N), and only the samples appended or reweighted since the
// previous call are summed.
func (d *Dataset) SampleBatch(k int, rng *simrand.Rand) []Weighted {
	n := len(d.items)
	if n == 0 || k <= 0 {
		return nil
	}
	d.extendCum()
	cum, total := d.cum[:d.clean], d.cum[n-1]
	out := make([]Weighted, k)
	for j := range out {
		if !(total > 0) {
			out[j] = d.items[rng.Intn(n)]
			continue
		}
		target := rng.Float64() * total
		lo, hi := 0, len(cum)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if target < cum[m] {
				hi = m
			} else {
				lo = m + 1
			}
		}
		if lo == len(cum) { // the target is past every sum before a NaN weight
			for lo = n - 1; !(d.items[lo].Weight > 0); lo-- {
			}
		}
		out[j] = d.items[lo]
	}
	return out
}

// extendCum extends the cached running sums over the whole dataset.
func (d *Dataset) extendCum() {
	var acc float64
	if len(d.cum) > 0 {
		acc = d.cum[len(d.cum)-1]
	}
	for i := len(d.cum); i < len(d.items); i++ {
		w := d.items[i].Weight
		if w > 0 {
			acc += w
		}
		if d.clean == i && w == w {
			d.clean++
		}
		d.cum = append(d.cum, acc)
	}
}

// WireSize returns the approximate transmission size of the whole dataset in
// bytes, including a 4-byte weight per sample.
func (d *Dataset) WireSize() int {
	var n int
	for _, it := range d.items {
		n += it.Sample.WireSize() + 4
	}
	return n
}

// Subset returns a new dataset holding the samples at the given indices.
func (d *Dataset) Subset(indices []int) *Dataset {
	out := New(len(indices))
	for _, i := range indices {
		out.items = append(out.items, d.items[i])
	}
	return out
}
