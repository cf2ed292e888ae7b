package baselines

import (
	"math"

	"lbchat/internal/core"
	"lbchat/internal/dataset"
	"lbchat/internal/model"
)

// DP is the Decentralized Powerloss gossip baseline [5]: vehicles exchange
// models with whoever is in range (no route-aware prioritization, no
// coresets) and merge with weights derived from a normalized logarithmic
// function of the received model's loss on a held-out local validation
// split. Per §IV-B it runs under LbChat's communication constraints, with a
// per-encounter compression ratio sized to fit the contact duration.
type DP struct {
	valSets [][]dataset.Weighted
	scratch *model.Policy
}

// validationFraction is the share of local data held out for scoring
// received models.
const validationFraction = 0.1

var _ core.Protocol = (*DP)(nil)

// NewDP returns the gossip baseline with a 10% validation split.
func NewDP() *DP { return &DP{} }

// Name implements core.Protocol.
func (p *DP) Name() string { return "DP" }

// Setup implements core.Protocol: carve per-vehicle validation splits.
func (p *DP) Setup(e *core.Engine) error {
	p.valSets = make([][]dataset.Weighted, len(e.Vehicles))
	for i, v := range e.Vehicles {
		n := v.Data.Len()
		k := int(validationFraction * float64(n))
		if k < 8 {
			k = minInt(8, n)
		}
		perm := v.RNG().Derive("dp-val").Perm(n)[:k]
		p.valSets[i] = v.Data.Subset(perm).Items()
	}
	if len(e.Vehicles) > 0 {
		p.scratch = e.Vehicles[0].Policy.Clone()
	}
	return nil
}

// OnTick implements core.Protocol.
func (p *DP) OnTick(e *core.Engine, now float64) {
	// No value- or route-awareness: any in-range pair is equally good. A
	// jittered constant score keeps the matching unbiased across IDs.
	rng := e.RNG()
	pairs := e.CandidatePairs(func(a, b int) float64 {
		return 1 + 0.01*rng.Float64()
	})
	for _, pr := range e.GreedyMatch(pairs) {
		gossip(e, pr.A, pr.B, func(to, _ int, flat []float64) func() {
			return func() { p.merge(e.Vehicles[to], p.valSets[to], flat) }
		})
	}
}

// merge folds a received model in with the normalized-log loss weights of
// [5]: the smaller the received model's validation loss, the larger its
// share.
func (p *DP) merge(v *core.Vehicle, val []dataset.Weighted, peerFlat []float64) {
	lossSelf := v.Policy.Loss(val)
	if err := p.scratch.SetFlat(peerFlat); err != nil {
		return
	}
	lossPeer := p.scratch.Loss(val)
	wPeer := math.Log(1+lossSelf) / (math.Log(1+lossSelf) + math.Log(1+lossPeer))
	if math.IsNaN(wPeer) {
		wPeer = 0.5
	}
	_ = core.MergeModels(v, peerFlat, 1-wPeer, wPeer)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
