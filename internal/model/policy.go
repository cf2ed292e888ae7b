package model

import (
	"fmt"
	"math"

	"lbchat/internal/dataset"
	"lbchat/internal/nn"
	"lbchat/internal/simrand"
	"lbchat/internal/tensor"
)

// Config describes the policy architecture and training hyper-parameters.
type Config struct {
	// BEV geometry (channels, height, width).
	BEVChannels int
	BEVHeight   int
	BEVWidth    int

	// UseConv inserts a strided convolution front-end before the dense trunk.
	UseConv      bool
	ConvChannels int

	// Hidden is the width of the dense trunk.
	Hidden int
	// NumWaypoints is the number of predicted future waypoints (each is an
	// (x, y) pair in the normalized ego frame).
	NumWaypoints int

	// LR is the Adam learning rate.
	LR float64
	// L2Penalty is λ1 of Eq. (6) (structural-risk regularizer).
	L2Penalty float64
	// EntropyPenalty is λ2 of Eq. (6) (command-balance penalty).
	EntropyPenalty float64
}

// gradClip bounds the gradient L2 norm of every training step.
const gradClip = 5

// DefaultConfig returns the configuration used throughout the experiments:
// a compact trunk sized so that the co-simulation can train tens of replicas
// on CPU, with the paper's learning rate of 1e-4... scaled up (1e-3) to
// compensate for the smaller model; see DESIGN.md.
func DefaultConfig() Config {
	return Config{
		BEVChannels:    3,
		BEVHeight:      16,
		BEVWidth:       16,
		UseConv:        false,
		ConvChannels:   8,
		Hidden:         64,
		NumWaypoints:   5,
		LR:             1e-3,
		L2Penalty:      1e-4,
		EntropyPenalty: 0.6,
	}
}

// BEVSize returns the flattened BEV input size.
func (c Config) BEVSize() int { return c.BEVChannels * c.BEVHeight * c.BEVWidth }

// InputSize returns the full network input size: the BEV plus the
// ego-speed, distance-to-maneuver, and red-light-distance scalars.
func (c Config) InputSize() int { return c.BEVSize() + 3 }

// TargetSize returns the flattened waypoint-target size.
func (c Config) TargetSize() int { return 2 * c.NumWaypoints }

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.BEVChannels <= 0 || c.BEVHeight <= 0 || c.BEVWidth <= 0:
		return fmt.Errorf("model: invalid BEV geometry %dx%dx%d", c.BEVChannels, c.BEVHeight, c.BEVWidth)
	case c.Hidden <= 0:
		return fmt.Errorf("model: non-positive hidden width %d", c.Hidden)
	case c.NumWaypoints <= 0:
		return fmt.Errorf("model: non-positive waypoint count %d", c.NumWaypoints)
	case c.LR <= 0:
		return fmt.Errorf("model: non-positive learning rate %g", c.LR)
	case c.UseConv && c.ConvChannels <= 0:
		return fmt.Errorf("model: conv enabled with non-positive channel count %d", c.ConvChannels)
	}
	return nil
}

// evalChunk is the most rows a forward-only evaluation pushes through the
// network at once. Rows of a forward pass are independent, so walking a large
// item list in chunks is bit-identical to one large batch, and it bounds the
// scratch a policy (and its layers) retains at max(train batch, evalChunk)
// rows whatever the caller passes.
const evalChunk = 64

// Policy is the branched driving model. It is not safe for concurrent use:
// every call works in scratch the policy holds (below), which stays valid
// only until the policy's next call. Slices a method returns are fresh.
type Policy struct {
	cfg    Config
	trunk  *nn.Sequential
	heads  [dataset.NumCommands]*nn.Dense
	opt    *nn.Adam
	params nn.ParamSet

	// Batch scratch, filled by buildBatch (and by Predict for its one row).
	x, y    *tensor.Dense
	cmds    []dataset.Command
	weights []float64
	// Forward scratch: the scattered predictions, the sample indices and
	// gathered trunk rows of each head. headIn is per head because each
	// head caches its input until TrainStep's backward pass.
	preds  *tensor.Dense
	byCmd  [dataset.NumCommands][]int
	headIn [dataset.NumCommands]*tensor.Dense
	// TrainStep scratch.
	perSample                  []float64
	grad, headGrad, hiddenGrad *tensor.Dense
}

// New builds a policy with deterministic initialization from seed. All
// policies built with the same (cfg, seed) have identical parameters. A
// fleet that shares one initialization (the paper's assumption) builds it
// once with New and gives every member a Clone of it.
func New(cfg Config, seed uint64) (*Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return build(cfg, simrand.New(seed)), nil
}

// build allocates a policy's layers for a validated cfg — the conv
// front-end when UseConv, the dense trunk and the per-command heads — with a
// fresh optimizer. Each layer draws its He-uniform weights from its own
// stream derived from rng; a nil rng seeds no stream and leaves every
// parameter zero.
func build(cfg Config, rng *simrand.Rand) *Policy {
	stream := func(name string) *simrand.Rand {
		if rng == nil {
			return nil
		}
		return rng.Derive(name)
	}
	var layers []nn.Layer
	trunkIn := cfg.InputSize()
	if cfg.UseConv {
		// The conv front-end sees only the BEV; the scalar inputs join at
		// the dense trunk via a SplitTail wrapper.
		conv := nn.NewConv2D("conv1", cfg.BEVChannels, cfg.BEVHeight, cfg.BEVWidth,
			cfg.ConvChannels, 3, 2, 1, stream("conv1"))
		layers = append(layers, nn.NewSplitTail(conv, 3), nn.NewReLU())
		trunkIn = conv.OutSize() + 3
	}
	layers = append(layers,
		nn.NewDense("fc1", trunkIn, cfg.Hidden, stream("fc1")),
		nn.NewReLU(),
		nn.NewDense("fc2", cfg.Hidden, cfg.Hidden, stream("fc2")),
		nn.NewReLU(),
	)
	p := &Policy{
		cfg:   cfg,
		trunk: nn.NewSequential(layers...),
		opt:   nn.NewAdam(cfg.LR),
	}
	for i := range p.heads {
		var head *simrand.Rand
		if rng != nil {
			head = rng.DeriveIndexed("head", i)
		}
		p.heads[i] = nn.NewDense(fmt.Sprintf("head%d", i), cfg.Hidden, cfg.TargetSize(), head)
	}
	p.params = append(nn.ParamSet{}, p.trunk.Params()...)
	for _, h := range p.heads {
		p.params = append(p.params, h.Params()...)
	}
	return p
}

// Config returns the policy configuration.
func (p *Policy) Config() Config { return p.cfg }

// Params returns the policy's parameters in stable order.
func (p *Policy) Params() nn.ParamSet { return p.params }

// NumParams returns the total scalar parameter count.
func (p *Policy) NumParams() int { return p.params.NumElements() }

// WireSize returns the serialized (uncompressed) model size in bytes; this is
// the S of the compression ratio φ = S/S_c.
func (p *Policy) WireSize() int { return nn.WireSize(p.NumParams()) }

// Flat returns a copy of the flat parameter vector.
func (p *Policy) Flat() []float64 { return p.params.Flatten() }

// SetFlat loads a flat parameter vector into the policy.
func (p *Policy) SetFlat(flat []float64) error { return p.params.LoadFlat(flat) }

// Clone returns a policy with identical parameters and a fresh optimizer
// state. It seeds no stream: the clone's layers are allocated zeroed and
// p's parameter values copied in, so the two share no storage. A Clone of an
// untouched New(cfg, seed) is bit for bit another New(cfg, seed).
func (p *Policy) Clone() *Policy {
	cp := build(p.cfg, nil)
	for i, q := range cp.params {
		copy(q.Value.Data(), p.params[i].Value.Data())
	}
	return cp
}

// forward runs the batch in p.x, p.cmds through trunk and heads, returning
// per-sample predictions shaped (batch, 2K) in policy scratch. It leaves the
// sample indices of each head in p.byCmd so backward can route gradients.
func (p *Policy) forward() *tensor.Dense {
	hidden := p.trunk.Forward(p.x)
	for h := range p.byCmd {
		p.byCmd[h] = p.byCmd[h][:0]
	}
	for i, c := range p.cmds {
		p.byCmd[c.Index()] = append(p.byCmd[c.Index()], i)
	}
	// Every row belongs to exactly one head, so every row is overwritten.
	p.preds = tensor.Reuse2D(p.preds, len(p.cmds), p.cfg.TargetSize())
	for h, idxs := range p.byCmd {
		if len(idxs) == 0 {
			continue
		}
		p.headIn[h] = gatherRows(p.headIn[h], hidden, idxs)
		scatterRows(p.preds, p.heads[h].Forward(p.headIn[h]), idxs)
	}
	return p.preds
}

// Predict returns the policy's waypoint prediction for one BEV + normalized
// ego speed + normalized distance-to-maneuver + command. It implements
// eval.Driver.
func (p *Policy) Predict(bev []uint8, speed, navDist, redDist float64, cmd dataset.Command) []float64 {
	p.x = tensor.Reuse2D(p.x, 1, p.cfg.InputSize())
	fillInputRow(p.x.Data(), bev, speed, navDist, redDist)
	p.cmds = append(p.cmds[:0], cmd)
	preds := p.forward()
	out := make([]float64, p.cfg.TargetSize())
	copy(out, preds.Data())
	return out
}

// fillInputRow writes one network input row: the BEV cells as floats, zero
// padding up to the scalars should the BEV be short, then the three scalars.
func fillInputRow(row []float64, bev []uint8, speed, navDist, redDist float64) {
	for j, v := range bev {
		row[j] = float64(v)
	}
	in := len(row)
	if len(bev) < in-3 {
		clear(row[len(bev) : in-3])
	}
	row[in-3] = speed
	row[in-2] = navDist
	row[in-1] = redDist
}

// gatherRows copies rows idxs of src into dst (reused when it is large
// enough, see tensor.Reuse2D) and returns it.
func gatherRows(dst, src *tensor.Dense, idxs []int) *tensor.Dense {
	cols := src.Shape()[1]
	dst = tensor.Reuse2D(dst, len(idxs), cols)
	for r, i := range idxs {
		copy(dst.Data()[r*cols:(r+1)*cols], src.Data()[i*cols:(i+1)*cols])
	}
	return dst
}

func scatterRows(dst, src *tensor.Dense, idxs []int) {
	cols := dst.Shape()[1]
	for r, i := range idxs {
		copy(dst.Data()[i*cols:(i+1)*cols], src.Data()[r*cols:(r+1)*cols])
	}
}

// buildBatch fills the policy's batch scratch (p.x, p.y, p.cmds, p.weights)
// from items.
func (p *Policy) buildBatch(items []dataset.Weighted) {
	batch := len(items)
	in, tgt := p.cfg.InputSize(), p.cfg.TargetSize()
	p.x = tensor.Reuse2D(p.x, batch, in)
	p.y = tensor.Reuse2D(p.y, batch, tgt)
	p.cmds, p.weights = p.cmds[:0], p.weights[:0]
	for i, it := range items {
		fillInputRow(p.x.Data()[i*in:(i+1)*in], it.Sample.BEV, it.Sample.Speed, it.Sample.NavDist, it.Sample.RedDist)
		ty := p.y.Data()[i*tgt : (i+1)*tgt]
		clear(ty[copy(ty, it.Sample.Targets):])
		p.cmds = append(p.cmds, it.Sample.Command)
		p.weights = append(p.weights, it.Weight)
	}
}

// meanSquaredErrors writes each row's mean squared error between p.preds
// and p.y into out.
func (p *Policy) meanSquaredErrors(out []float64) {
	tgt := p.cfg.TargetSize()
	for i := range out {
		var acc float64
		pr := p.preds.Data()[i*tgt : (i+1)*tgt]
		ty := p.y.Data()[i*tgt : (i+1)*tgt]
		for j := range pr {
			dv := pr[j] - ty[j]
			acc += dv * dv
		}
		out[i] = acc / float64(tgt)
	}
}

// TrainStep performs one optimizer step on the weighted batch and returns
// the Eq. (6) training loss: the risk and σ terms are those of the forward
// pass, i.e. before the update, but the λ1·‖x‖ term is read after it (moving
// it would move every train_step event's loss; ROADMAP item 2(b)).
func (p *Policy) TrainStep(items []dataset.Weighted) float64 {
	if len(items) == 0 {
		return 0
	}
	p.buildBatch(items)
	preds := p.forward()
	y, cmds, weights := p.y, p.cmds, p.weights

	batch := len(items)
	tgt := p.cfg.TargetSize()
	if cap(p.perSample) < batch {
		p.perSample = make([]float64, batch)
	}
	perSample := p.perSample[:batch]
	p.meanSquaredErrors(perSample)
	var totalW float64
	for _, w := range weights {
		totalW += w
	}
	if totalW <= 0 {
		return 0
	}

	// Command-rebalance multipliers: a first-order realization of the λ2
	// entropy penalty in Eq. (6) — commands whose mean loss exceeds the
	// overall mean get up-weighted gradients, pushing per-command losses
	// toward balance. See DESIGN.md §2.
	cmdMult := commandMultipliers(perSample, weights, cmds, p.cfg.EntropyPenalty)

	// dLoss/dPred with per-sample weights folded in.
	p.grad = tensor.Reuse2D(p.grad, batch, tgt)
	for i := 0; i < batch; i++ {
		w := weights[i] / totalW * cmdMult[cmds[i].Index()]
		pr := preds.Data()[i*tgt : (i+1)*tgt]
		ty := y.Data()[i*tgt : (i+1)*tgt]
		g := p.grad.Data()[i*tgt : (i+1)*tgt]
		for j := range pr {
			g[j] = 2 * w * (pr[j] - ty[j]) / float64(tgt)
		}
	}

	p.params.ZeroGrad()
	// As for preds: every row of hiddenGrad is overwritten.
	p.hiddenGrad = tensor.Reuse2D(p.hiddenGrad, batch, p.cfg.Hidden)
	for h, idxs := range p.byCmd {
		if len(idxs) == 0 {
			continue
		}
		p.headGrad = gatherRows(p.headGrad, p.grad, idxs)
		scatterRows(p.hiddenGrad, p.heads[h].Backward(p.headGrad), idxs)
	}
	// Nothing is upstream of the trunk's first layer: its input gradient —
	// by far the widest product of the step — has no reader.
	p.trunk.BackwardParams(p.hiddenGrad)
	// λ1 term: L2 structural risk enters as weight decay on the gradient.
	decay := 0.0
	if p.cfg.L2Penalty > 0 {
		decay = 2 * p.cfg.L2Penalty
	}
	nn.DecayClipGradNorm(p.params, decay, gradClip)
	p.opt.Step(p.params)

	return p.lossFromPerSample(perSample, weights, cmds)
}

// PerSampleLosses evaluates the unpenalized per-sample losses f(x; d) for
// each item, without touching gradients. Used by coreset layering and value
// assessment. The items go through the network evalChunk rows at a time.
func (p *Policy) PerSampleLosses(items []dataset.Weighted) []float64 {
	if len(items) == 0 {
		return nil
	}
	out := make([]float64, len(items))
	for lo := 0; lo < len(items); lo += evalChunk {
		hi := min(lo+evalChunk, len(items))
		p.buildBatch(items[lo:hi])
		p.forward()
		p.meanSquaredErrors(out[lo:hi])
	}
	return out
}

// Loss evaluates the full Eq. (6) loss of the policy on a weighted sample
// set: weighted empirical risk + λ1·‖x‖ + λ2·σ(x).
func (p *Policy) Loss(items []dataset.Weighted) float64 {
	if len(items) == 0 {
		return 0
	}
	perSample := p.PerSampleLosses(items)
	weights := make([]float64, len(items))
	cmds := make([]dataset.Command, len(items))
	for i, it := range items {
		weights[i] = it.Weight
		cmds[i] = it.Sample.Command
	}
	return p.lossFromPerSample(perSample, weights, cmds)
}

func (p *Policy) lossFromPerSample(perSample, weights []float64, cmds []dataset.Command) float64 {
	var risk, totalW float64
	for i, l := range perSample {
		risk += weights[i] * l
		totalW += weights[i]
	}
	if totalW > 0 {
		risk /= totalW
	}
	loss := risk
	if p.cfg.L2Penalty > 0 {
		loss += p.cfg.L2Penalty * p.params.L2Norm()
	}
	if p.cfg.EntropyPenalty > 0 {
		// The σ term is reported at a fixed small scale; EntropyPenalty
		// itself chiefly controls the gradient rebalancing strength.
		loss += 0.05 * CommandImbalance(perSample, weights, cmds)
	}
	return loss
}

// CommandImbalance computes σ(x) of Eq. (6): the KL divergence from uniform
// of the normalized per-command mean losses (equivalently log K minus the
// entropy of the loss distribution across commands). Zero means the model
// handles all observed commands equally well.
func CommandImbalance(perSample, weights []float64, cmds []dataset.Command) float64 {
	var sums, ws [dataset.NumCommands]float64
	for i, l := range perSample {
		idx := cmds[i].Index()
		sums[idx] += weights[i] * l
		ws[idx] += weights[i]
	}
	means := make([]float64, 0, dataset.NumCommands)
	var total float64
	for i := range sums {
		if ws[i] > 0 {
			m := sums[i] / ws[i]
			means = append(means, m)
			total += m
		}
	}
	if len(means) < 2 || total <= 0 {
		return 0
	}
	logK := math.Log(float64(len(means)))
	var entropy float64
	for _, m := range means {
		q := m / total
		if q > 0 {
			entropy -= q * math.Log(q)
		}
	}
	return logK - entropy
}

func commandMultipliers(perSample, weights []float64, cmds []dataset.Command, lambda float64) [dataset.NumCommands]float64 {
	var mult [dataset.NumCommands]float64
	for i := range mult {
		mult[i] = 1
	}
	if lambda <= 0 {
		return mult
	}
	var sums, ws [dataset.NumCommands]float64
	for i, l := range perSample {
		idx := cmds[i].Index()
		sums[idx] += weights[i] * l
		ws[idx] += weights[i]
	}
	var mean float64
	var seen int
	for i := range sums {
		if ws[i] > 0 {
			mean += sums[i] / ws[i]
			seen++
		}
	}
	if seen == 0 || mean == 0 {
		return mult
	}
	mean /= float64(seen)
	for i := range mult {
		if ws[i] > 0 && mean > 0 {
			ratio := (sums[i] / ws[i]) / mean
			// Linear in the loss imbalance, clamped for stability: commands
			// the model underserves (rare turn commands) get a materially
			// larger gradient share, which is what keeps every head trained
			// (the paper's stated purpose for the σ penalty).
			m := 1 + lambda*(ratio-1)
			mult[i] = math.Max(1-lambda, math.Min(1+4*lambda, m))
		}
	}
	return mult
}
