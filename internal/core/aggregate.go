package core

import (
	"fmt"

	"lbchat/internal/dataset"
)

// AggregationWeights computes the Eq. (8) merge weights from the two models'
// losses on the joint evaluation set (the receiver's data joined with the
// sender's coreset, §III-C).
//
// As printed, Eq. (8) weights each model by its OWN loss, which would favor
// the worse model and contradicts the surrounding text ("assigns larger
// weights to better-performing models"). This implements the stated intent:
// each model is weighted by the OTHER model's normalized loss. See DESIGN.md
// §4.
func AggregationWeights(lossSelf, lossPeer float64) (wSelf, wPeer float64) {
	if lossSelf < 0 || lossPeer < 0 {
		lossSelf, lossPeer = clampNonNeg(lossSelf), clampNonNeg(lossPeer)
	}
	total := lossSelf + lossPeer
	if total <= 0 {
		return 0.5, 0.5
	}
	return lossPeer / total, lossSelf / total
}

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// MergeModels blends a received (decompressed) peer parameter vector into
// the vehicle's policy: x ← wSelf·x + wPeer·x̂_peer.
func MergeModels(v *Vehicle, peerFlat []float64, wSelf, wPeer float64) error {
	selfFlat := v.Policy.Flat()
	if len(peerFlat) != len(selfFlat) {
		return fmt.Errorf("core: peer model has %d params, local has %d", len(peerFlat), len(selfFlat))
	}
	for i := range selfFlat {
		selfFlat[i] = wSelf*selfFlat[i] + wPeer*peerFlat[i]
	}
	return v.Policy.SetFlat(selfFlat)
}

// JointEvalSet builds the weighted sample set both models are scored on for
// aggregation: the receiver's coreset (standing in for D_i via the ε-coreset
// property) unioned with the sender's coreset — the fast path of §III-D.
func JointEvalSet(e *Engine, v *Vehicle, peerItems []dataset.Weighted) []dataset.Weighted {
	var own []dataset.Weighted
	if v.Core != nil {
		own = v.Core.Items()
	} else {
		own = v.Data.Items()
	}
	joint := make([]dataset.Weighted, 0, len(own)+len(peerItems))
	joint = append(joint, own...)
	joint = append(joint, peerItems...)
	return e.EvalSubset(v, joint)
}
