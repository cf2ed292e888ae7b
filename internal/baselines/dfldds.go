package baselines

import (
	"math"

	"lbchat/internal/core"
)

// DFLDDS is the synchronous fully-decentralized baseline [30]: all vehicles
// proceed in lock-step rounds (the round length equals LbChat's T_B, per
// §IV-B), exchanging models at round boundaries with in-range peers and
// tuning aggregation weights to DIVERSIFY the data sources contributing to
// each model. Each model carries a contribution vector over source vehicles;
// the merge weight is chosen to pull the combined vector toward uniform.
type DFLDDS struct {
	// contrib[i] is vehicle i's current data-source contribution vector.
	contrib [][]float64
	// nextRound is the next synchronized round boundary.
	nextRound float64
}

var _ core.Protocol = (*DFLDDS)(nil)

// NewDFLDDS returns the synchronous decentralized baseline.
func NewDFLDDS() *DFLDDS { return &DFLDDS{} }

// Name implements core.Protocol.
func (p *DFLDDS) Name() string { return "DFL-DDS" }

// Setup implements core.Protocol.
func (p *DFLDDS) Setup(e *core.Engine) error {
	n := len(e.Vehicles)
	p.contrib = make([][]float64, n)
	for i := range p.contrib {
		c := make([]float64, n)
		c[i] = 1
		p.contrib[i] = c
	}
	p.nextRound = e.Cfg.TimeBudget
	return nil
}

// OnTick implements core.Protocol: exchanges happen only at round
// boundaries — the synchronization requirement that makes round-based
// schemes brittle among moving vehicles.
func (p *DFLDDS) OnTick(e *core.Engine, now float64) {
	if now < p.nextRound {
		return
	}
	p.nextRound += e.Cfg.TimeBudget
	rng := e.RNG()
	pairs := e.CandidatePairs(func(a, b int) float64 {
		return 1 + 0.01*rng.Float64()
	})
	// The adapted baseline compresses so each pair can finish within its
	// contact duration, capped by the round length (T_B).
	for _, pr := range e.GreedyMatch(pairs) {
		gossip(e, pr.A, pr.B, func(to, from int, flat []float64) func() {
			// Contribution vectors ride along with the models (negligible
			// size), as they stood when the exchange started.
			contrib := append([]float64(nil), p.contrib[from]...)
			return func() { p.merge(e.Vehicles[to], to, flat, contrib) }
		})
	}
}

// merge picks the self-weight α minimizing the distance of the combined
// contribution vector from uniform — the data-source-diversifying weight
// tuning of DFL-DDS — then blends models and updates the receiver's vector.
func (p *DFLDDS) merge(v *core.Vehicle, idx int, peerFlat, peerContrib []float64) {
	self := p.contrib[idx]
	n := len(self)
	uniform := 1 / float64(n)
	bestAlpha, bestDist := 0.5, math.Inf(1)
	for step := 0; step <= 20; step++ {
		alpha := float64(step) / 20
		var dist float64
		for i := range self {
			d := alpha*self[i] + (1-alpha)*peerContrib[i] - uniform
			dist += d * d
		}
		if dist < bestDist {
			bestAlpha, bestDist = alpha, dist
		}
	}
	// Guard against degenerate all-peer merges: keep at least a 20% stake
	// in the local model, as the original work bounds self-weights.
	alpha := math.Max(0.2, math.Min(0.8, bestAlpha))
	if err := core.MergeModels(v, peerFlat, alpha, 1-alpha); err != nil {
		return
	}
	for i := range self {
		self[i] = alpha*self[i] + (1-alpha)*peerContrib[i]
	}
}
