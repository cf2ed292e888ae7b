package radio

import "math"

// PriorityInputs collects the assistive information two vehicles exchange
// before deciding whether (and in what order) to chat: estimated contact
// duration, link distance, and both sides' available bandwidth. The paper
// notes this information totals 184 bytes and its transmission time is
// negligible.
type PriorityInputs struct {
	// ContactDuration is the estimated remaining contact time (s), which
	// the engine reads off the recorded future trace (ROADMAP item 21).
	ContactDuration float64
	// Distance is the current link distance (m).
	Distance float64
	// BandwidthA and BandwidthB are the two vehicles' available bandwidths
	// (bits/s); the link runs at the minimum of the two.
	BandwidthA, BandwidthB float64
	// PayloadBytes is the size of the model payload whose delivery the
	// score estimates.
	PayloadBytes int
	// TimeBudget is T_B, the per-pair exchange time budget (s).
	TimeBudget float64
}

// AssistiveInfoBytes is the wire size of the route/bandwidth information
// exchanged for Eq. (5), as measured in the paper's experiments.
const AssistiveInfoBytes = 184

// ContactPriority computes z_ij, the truncated-ratio contact-duration
// priority of [7]: how much of the needed exchange window the contact
// covers, capped at 1. A higher z means the contact is short yet sufficient.
func ContactPriority(contactDuration, timeBudget float64) float64 {
	if timeBudget <= 0 {
		return 0
	}
	return math.Min(contactDuration/timeBudget, 1)
}

// Score computes the Eq. (5) exchange-sequence priority
// c_ij = z_ij · p_ij · min{B_i, B_j}. Bandwidth is normalized by the model's
// peak rate so scores stay comparable across parameter settings.
func (m *Model) Score(in PriorityInputs) float64 {
	z := ContactPriority(in.ContactDuration, in.TimeBudget)
	p := m.MessageSuccessProb(in.PayloadBytes, in.Distance)
	minBW := math.Min(in.BandwidthA, in.BandwidthB)
	return z * p * minBW / m.Params.MaxBandwidthBps
}
