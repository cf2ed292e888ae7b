package core

import (
	"fmt"
	"math"

	"lbchat/internal/compress"
	"lbchat/internal/coreset"
	"lbchat/internal/dataset"
	"lbchat/internal/model"
	"lbchat/internal/optimize"
	"lbchat/internal/radio"
	"lbchat/internal/telemetry"
)

// Variant selects one arm of LbChat for the paper's ablations and the SCO
// study: full LbChat (the zero value) or one component masked or extended.
// Its String is the arm's protocol name.
type Variant uint8

const (
	// fullLbChat is the paper's protocol, every component on.
	fullLbChat Variant = iota
	// SCO shares coresets only: no model exchange or aggregation (§IV-G).
	SCO
	// EqualCompression masks the Eq. (7) optimization and splits the
	// exchange window into equal fixed compression ratios (Table V).
	EqualCompression
	// AverageAggregation masks the Eq. (8) weights and merges with plain
	// averaging (Table VI).
	AverageAggregation
	// NoPrioritization masks the Eq. (5) route-sharing neighbor
	// prioritization: encounters pair up at random like the gossip
	// baselines, isolating what the priority score contributes.
	NoPrioritization
	// AdaptiveCoresetSize enables the paper's stated future-work feature:
	// each vehicle tunes its coreset budget so the coreset exchange
	// consumes at most a small share of its typically observed contact
	// duration — short-contact vehicles shrink their coresets, vehicles
	// with long encounters can afford richer ones.
	AdaptiveCoresetSize
	// NoResumption disables chat-session resumption: a re-encountered peer
	// restarts a broken coreset exchange from scratch instead of resuming
	// from the last completed payload — the FaultSweep comparison arm
	// (DESIGN.md §9).
	NoResumption
)

// variantNames spells each Variant's protocol name, in Variant order.
var variantNames = [...]string{
	fullLbChat:          "LbChat",
	SCO:                 "SCO",
	EqualCompression:    "LbChat-EqualComp",
	AverageAggregation:  "LbChat-AvgAgg",
	NoPrioritization:    "LbChat-NoPrio",
	AdaptiveCoresetSize: "LbChat-AdaptiveCS",
	NoResumption:        "LbChat-NoResume",
}

// String returns the variant's protocol name.
func (v Variant) String() string {
	if int(v) < len(variantNames) {
		return variantNames[v]
	}
	return fmt.Sprintf("Variant(%d)", uint8(v))
}

// Adaptive coreset sizing constants: the coreset exchange should claim at
// most adaptiveCoresetShare of the typical contact, and the budget stays
// within the paper's sweep range [15, 1500].
const (
	adaptiveCoresetShare = 0.06
	adaptiveCoresetMin   = 15
	adaptiveCoresetMax   = 1500
	contactEMAAlpha      = 0.3
)

// Resilient-chat constants (DESIGN.md §9): a coreset leg must land at least
// salvageViableFrac of its frames for the chat to proceed to the model
// exchange, and a broken session stays resumable for resumeTTL seconds of
// virtual time.
const (
	salvageViableFrac = 0.25
	resumeTTL         = 900.0
)

// legOutcome is what the receiver of one coreset leg ends up holding.
type legOutcome struct {
	// core is the coreset as held by the receiver: the sender's coreset
	// when full, a discounted prefix when salvaged, nil when nothing
	// usable arrived.
	core *coreset.Coreset
	// frames counts the intact frames delivered.
	frames int
	// full marks a complete, uncorrupted payload.
	full bool
	// resumed marks a leg carried over from a broken session; its payload
	// was already absorbed when that session broke, so absorption must not
	// repeat.
	resumed bool
}

// chatSession records a broken coreset exchange so a re-encounter within
// resumeTTL can resume from the last completed payload instead of
// restarting (DESIGN.md §9 state machine).
type chatSession struct {
	brokenAt float64
	// toB is what the higher-indexed vehicle holds of the lower's coreset
	// (pair keys are ordered a < b); toA the reverse direction.
	toB, toA legOutcome
}

// viableFrames is the minimum salvaged-frame count for a coreset leg of
// the given size to count as delivered.
func viableFrames(total int) int {
	v := int(salvageViableFrac * float64(total))
	if v < 1 {
		v = 1
	}
	return v
}

// LbChat is the paper's protocol (Algorithm 2) as an engine Protocol.
type LbChat struct {
	// Variant selects ablation behaviour.
	Variant Variant

	scratch *model.Policy // reusable buffer for evaluating received models
	// sessions holds broken coreset exchanges by ordered pair key for
	// resumption on re-encounter.
	sessions map[[2]int]*chatSession
}

// NewLbChat returns the full protocol.
func NewLbChat() *LbChat { return &LbChat{} }

// NewLbChatVariant returns the protocol arm v.
func NewLbChatVariant(v Variant) *LbChat { return &LbChat{Variant: v} }

// Name implements Protocol: the variant's protocol name.
func (l *LbChat) Name() string { return l.Variant.String() }

// Setup implements Protocol.
func (l *LbChat) Setup(e *Engine) error {
	if len(e.Vehicles) > 0 {
		l.scratch = e.Vehicles[0].Policy.Clone()
	}
	l.sessions = make(map[[2]int]*chatSession)
	return nil
}

// OnTick implements Protocol: detect encounters, determine the exchange
// sequence with Eq. (5), and run pairwise chats.
func (l *LbChat) OnTick(e *Engine, now float64) {
	score := func(a, b int) float64 {
		va, vb := e.Vehicles[a], e.Vehicles[b]
		return e.Radio.Score(radio.PriorityInputs{
			ContactDuration: e.Contact(a, b),
			Distance:        e.Distance(a, b),
			BandwidthA:      va.Bandwidth,
			BandwidthB:      vb.Bandwidth,
			// Score against a typical compressed-model payload: the raw
			// 52 MB model would zero out p_ij at any useful distance.
			PayloadBytes: e.CompressedModelBytes(0.5),
			TimeBudget:   e.Cfg.TimeBudget,
		})
	}
	if l.Variant == NoPrioritization {
		// Route-sharing ablation: any in-range pair is equally good.
		score = e.JitteredScore()
	}
	pairs := e.CandidatePairs(score)
	for _, p := range e.GreedyMatch(pairs) {
		l.chat(e, p.A, p.B)
	}
}

// chat runs one pairwise LbChat session between vehicles a and b
// (Algorithm 2, lines 8–16). Decisions are computed now; model merges and
// dataset expansion take effect when their transfers complete.
func (l *LbChat) chat(e *Engine, a, b int) {
	va, vb := e.Vehicles[a], e.Vehicles[b]
	contact := e.Contact(a, b)
	window := math.Min(e.Cfg.TimeBudget, contact)
	if window <= 0 {
		return
	}
	window = e.FaultWindow(a, b, window)
	e.Emit(telemetry.ChatInitiated{Time: e.Now(), A: a, B: b, Contact: contact, Window: window})
	if l.Variant == AdaptiveCoresetSize {
		l.adaptCoresetSize(e, va, contact)
		l.adaptCoresetSize(e, vb, contact)
	}

	// Line 8: construct (or refresh) both coresets.
	ca, err := e.EnsureCoreset(va)
	if err != nil {
		e.Emit(telemetry.ChatAborted{Time: e.Now(), A: a, B: b, Reason: telemetry.AbortCoresetBuild})
		return
	}
	cb, err := e.EnsureCoreset(vb)
	if err != nil {
		e.Emit(telemetry.ChatAborted{Time: e.Now(), A: a, B: b, Reason: telemetry.AbortCoresetBuild})
		return
	}

	// Line 9: exchange coresets (half-duplex, sequential). A recently broken
	// session with this peer resumes from its last completed payload: fully
	// delivered legs are not re-sent (DESIGN.md §9).
	key := [2]int{a, b}
	var resumed *chatSession
	if s, ok := l.sessions[key]; ok {
		delete(l.sessions, key)
		if l.Variant != NoResumption && e.Now()-s.brokenAt <= resumeTTL {
			resumed = s
		}
	}
	elapsed := 0.0
	var legAB, legBA legOutcome
	if resumed != nil {
		if resumed.toB.full {
			legAB = resumed.toB
			legAB.resumed = true
		}
		if resumed.toA.full {
			legBA = resumed.toA
			legBA.resumed = true
		}
		savedFrames := 0
		if legAB.resumed {
			savedFrames += legAB.frames
		}
		if legBA.resumed {
			savedFrames += legBA.frames
		}
		if savedFrames > 0 {
			e.Emit(telemetry.ChatResumed{
				Time: e.Now(), A: a, B: b,
				SavedBytes: e.CoresetWireBytes(savedFrames),
				Age:        e.Now() - resumed.brokenAt,
			})
		}
	}
	if !legAB.resumed {
		var t float64
		legAB, t = l.sendCoreset(e, ca, a, b, window)
		elapsed += t
	}
	if !legBA.resumed && legAB.full {
		var t float64
		legBA, t = l.sendCoreset(e, cb, b, a, window-elapsed)
		elapsed += t
	}
	viable := func(leg legOutcome, sent *coreset.Coreset) bool {
		return leg.full || leg.frames >= viableFrames(sent.Len())
	}
	if !viable(legAB, ca) || !viable(legBA, cb) {
		// Coreset exchange failed: the pair decouples, time was spent. The
		// delivered direction is NOT wasted — its receiver still absorbs it
		// (one-sided salvage) — and the broken session is recorded so a
		// re-encounter can resume it.
		doneAt := e.Now() + elapsed
		if core := legAB.core; core != nil && !legAB.resumed {
			e.Events.Schedule(doneAt, func() { _ = e.AbsorbCoreset(vb, core) })
		}
		if core := legBA.core; core != nil && !legBA.resumed {
			e.Events.Schedule(doneAt, func() { _ = e.AbsorbCoreset(va, core) })
		}
		if l.Variant != NoResumption {
			l.sessions[key] = &chatSession{brokenAt: e.Now(), toB: legAB, toA: legBA}
		}
		e.Emit(telemetry.ChatAborted{Time: e.Now(), A: a, B: b, Reason: telemetry.AbortCoresetExchange})
		e.MarkChatted(a, b, doneAt)
		return
	}

	// Both directions are across (possibly as discounted salvaged
	// prefixes): caAtB is what b now holds of a's coreset, cbAtA the
	// reverse. The rest of the chat works from the held copies.
	caAtB, cbAtA := legAB.core, legBA.core

	if l.Variant == SCO {
		doneAt := e.Now() + elapsed
		absorbAB, absorbBA := !legAB.resumed, !legBA.resumed
		e.Events.Schedule(doneAt, func() {
			if absorbBA {
				_ = e.AbsorbCoreset(va, cbAtA)
			}
			if absorbAB {
				_ = e.AbsorbCoreset(vb, caAtB)
			}
		})
		e.Emit(telemetry.ChatCompleted{Time: e.Now(), A: a, B: b, Elapsed: elapsed})
		e.MarkChatted(a, b, doneAt)
		return
	}

	// Lines 10–12: evaluate both models on both coresets; fit φ curves from
	// sampled compressed-model losses. The evaluation results and φ samples
	// are exchanged; their wire size is negligible next to the coresets.
	// Value assessment runs on the HELD copies, so a salvaged prefix
	// contributes with its discounted weights (Eq. 8 value estimation).
	evalA := e.EvalSubset(va, caAtB.Items())
	evalB := e.EvalSubset(vb, cbAtA.Items())
	lossAonB := va.Policy.Loss(evalB)
	lossBonA := vb.Policy.Loss(evalA)

	// One delta plan per model serves every ψ sample of its φ fit and the
	// transfer that follows: neither vehicle trains before the chat returns.
	planA := e.fillPlan(0, va.Policy.Flat())
	planB := e.fillPlan(1, vb.Policy.Flat())

	remaining := window - elapsed
	modelBytes := e.ModelWireBytes()
	minBW := math.Min(va.Bandwidth, vb.Bandwidth)

	var psiA, psiB float64
	if l.Variant == EqualCompression {
		// Ablation: fixed equal ratios sized so both directions fill the
		// remaining window.
		psiA = FitWindowPsi(remaining, minBW, modelBytes)
		psiB = psiA
	} else {
		// Line 13: optimize compression ratios with Eq. (7).
		phiA, psisA, lossesA := l.fitPhi(e, va, planA, evalA)
		phiB, psisB, lossesB := l.fitPhi(e, vb, planB, evalB)
		sol := optimize.Solve(optimize.Problem{
			PhiSelf:         phiA,
			PhiPeer:         phiB,
			LossSelfOnPeer:  lossAonB,
			LossPeerOnSelf:  lossBonA,
			ModelBytes:      modelBytes,
			MinBandwidthBps: minBW,
			TimeBudget:      remaining,
			ContactTime:     contact - elapsed,
			LambdaC:         e.Cfg.LambdaC,
		})
		psiA, psiB = sol.PsiSelf, sol.PsiPeer
		if e.TelemetryEnabled() {
			e.Emit(telemetry.ChatDecision{
				Time: e.Now(), A: a, B: b, Contact: contact, Window: remaining,
				LossAonB: lossAonB, LossBonA: lossBonA,
				PhiPsiA: psisA, PhiLossA: lossesA, PhiPsiB: psisB, PhiLossB: lossesB,
				PsiA: psiA, PsiB: psiB,
				Objective: sol.Objective, GainA: sol.GainSelf, GainB: sol.GainPeer,
			})
		}
	}

	// Line 14: exchange compressed models (A's model travels to B first).
	sentA, okA, tA := l.sendModel(e, planA, va, vb, psiA, remaining)
	elapsed += tA
	remaining -= tA
	sentB, okB, tB := l.sendModel(e, planB, vb, va, psiB, remaining)
	elapsed += tB

	doneAt := e.Now() + elapsed

	// Lines 15–16 take effect when the payloads land. Peer coresets are
	// absorbed regardless of the model transfers' fate — they already made
	// it across during line 9 (or during the broken session a resumed leg
	// came from, in which case absorption must not repeat).
	schedule := func(recv *Vehicle, sent []float64, ok bool, senderCore *coreset.Coreset, absorb bool) {
		var peerFlat []float64
		if ok && sent != nil {
			peerFlat = sent
		}
		e.Events.Schedule(doneAt, func() {
			if peerFlat != nil {
				l.mergeInto(e, recv, peerFlat, senderCore)
			}
			if absorb {
				_ = e.AbsorbCoreset(recv, senderCore)
			}
		})
	}
	schedule(vb, sentA, okA, caAtB, !legAB.resumed)
	schedule(va, sentB, okB, cbAtA, !legBA.resumed)
	e.Emit(telemetry.ChatCompleted{Time: e.Now(), A: a, B: b, Elapsed: elapsed})
	e.MarkChatted(a, b, doneAt)
}

// sendCoreset plays one coreset leg from→to with bounded retry-with-backoff
// (TransferResilient), salvaging the intact prefix of an incomplete or
// corrupted payload into a weight-discounted coreset the receiver can still
// use. It returns what the receiver holds and the air time spent.
func (l *LbChat) sendCoreset(e *Engine, cs *coreset.Coreset, from, to int, deadline float64) (legOutcome, float64) {
	if deadline <= 0 {
		return legOutcome{}, 0
	}
	res := e.TransferResilient(telemetry.PayloadCoreset, e.CoresetWireBytes(cs.Len()), from, to, deadline)
	frames := cs.Len()
	full := res.Completed
	if !full {
		frames = res.BytesDelivered / paperFrameBytes
		if frames > cs.Len() {
			frames = cs.Len()
		}
	} else if keep := e.FaultCorruptCoreset(from, to, frames); keep < frames {
		frames, full = keep, false
	}
	out := legOutcome{frames: frames, full: full}
	switch {
	case full:
		out.core = cs
	case frames > 0:
		out.core = salvageCoreset(cs, frames)
		e.Emit(telemetry.PartialSalvage{
			Time: e.Now(), Vehicle: to, From: from,
			Frames: frames, Total: cs.Len(),
			Discount: float64(frames) / float64(cs.Len()),
		})
	}
	return out, res.Elapsed
}

// adaptCoresetSize updates the vehicle's contact-duration estimate and
// retunes its coreset budget so the coreset exchange stays a small share of
// a typical encounter.
func (l *LbChat) adaptCoresetSize(e *Engine, v *Vehicle, contact float64) {
	if v.ContactEMA == 0 {
		v.ContactEMA = contact
	} else {
		v.ContactEMA = (1-contactEMAAlpha)*v.ContactEMA + contactEMAAlpha*contact
	}
	budgetBytes := adaptiveCoresetShare * v.ContactEMA * v.Bandwidth / 8
	size := int(budgetBytes / paperFrameBytes)
	if size < adaptiveCoresetMin {
		size = adaptiveCoresetMin
	}
	if size > adaptiveCoresetMax {
		size = adaptiveCoresetMax
	}
	v.CoresetSizeOverride = size
}

// fitPhi samples the vehicle's own model, planned in plan, at the configured
// ψ levels, evaluates each compressed variant on the vehicle's coreset
// subset, and fits the Akima φ curve (§III-C); it also returns the (ψ, loss)
// samples the fit was fed. Every sub-unit level is cut from the one plan
// into its reused buffer, so the fit allocates nothing per sample.
func (l *LbChat) fitPhi(e *Engine, v *Vehicle, plan *compress.DeltaPlan, evalItems []dataset.Weighted) (curve *optimize.PhiCurve, psis, losses []float64) {
	samples := e.Cfg.PsiSamples
	psis = make([]float64, 0, len(samples))
	losses = make([]float64, 0, len(samples))
	for _, psi := range samples {
		var loss float64
		if psi >= 1 {
			loss = v.Policy.Loss(evalItems)
		} else {
			if err := l.scratch.SetFlat(plan.Reconstruct(e.keepCount(psi))); err != nil {
				continue
			}
			loss = l.scratch.Loss(evalItems)
		}
		psis = append(psis, psi)
		losses = append(losses, loss)
	}
	curve, err := optimize.FitPhi(psis, losses)
	if err != nil {
		curve = nil
	}
	return curve, psis, losses
}

// sendModel compresses the sender's model, planned in plan, at ψ and
// simulates its transfer, returning the receiver-side reconstruction. ψ = 0
// means "do not send" (no attempt is counted). The receiver's receive-rate
// counter records the outcome.
func (l *LbChat) sendModel(e *Engine, plan *compress.DeltaPlan, from, to *Vehicle, psi, deadline float64) ([]float64, bool, float64) {
	if psi <= 0 {
		return nil, false, 0
	}
	rec := e.reconstructPlan(plan, psi)
	bytes := e.CompressedModelBytes(psi)
	e.Emit(telemetry.CompressionChosen{Time: e.Now(), From: from.ID, To: to.ID, Psi: psi, Bytes: bytes})
	res := e.SimulateTransfer(bytes, from.ID, to.ID, deadline)
	to.Recv.Record(res.Completed)
	return rec, res.Completed, res.Elapsed
}

// mergeInto aggregates a received peer model into the vehicle's policy with
// the Eq. (8) weights computed on the joint coreset (fast path of §III-D).
func (l *LbChat) mergeInto(e *Engine, v *Vehicle, peerFlat []float64, senderCore *coreset.Coreset) {
	var wSelf, wPeer float64
	if l.Variant == AverageAggregation {
		wSelf, wPeer = 0.5, 0.5
	} else {
		joint := JointEvalSet(e, v, senderCore.Items())
		lossSelf := v.Policy.Loss(joint)
		if err := l.scratch.SetFlat(peerFlat); err != nil {
			return
		}
		lossPeer := l.scratch.Loss(joint)
		wSelf, wPeer = AggregationWeights(lossSelf, lossPeer)
	}
	e.Emit(telemetry.Aggregation{Time: e.Now(), Vehicle: v.ID, WSelf: wSelf, WPeer: wPeer})
	// Length mismatches are impossible (identical architectures); ignore
	// the error to keep the event handler simple.
	_ = MergeModels(v, peerFlat, wSelf, wPeer)
}
