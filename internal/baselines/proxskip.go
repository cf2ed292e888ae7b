package baselines

import (
	"lbchat/internal/core"
	"lbchat/internal/simrand"
	"lbchat/internal/telemetry"
)

// ProxSkip is the central-server federated-learning baseline [28]. Vehicles
// run local steps continuously (the engine's training loop) and, at each
// round boundary (every T_B seconds), communicate with the server only
// with probability syncProb — ProxSkip's hallmark communication skipping.
// The backend is idealistically unconstrained (§IV-B): transfers are
// instantaneous and unlimited in bandwidth. Under the lossy regime, each
// up/downlink suffers a wireless loss uniformly sampled from the
// distance-loss lookup table (§IV-C), exactly as the paper evaluates it.
type ProxSkip struct {
	nextRound float64
	rng       *simrand.Rand
}

// syncProb is the per-round probability of a global synchronization.
const syncProb = 0.5

var _ core.Protocol = (*ProxSkip)(nil)

// NewProxSkip returns the baseline with the standard skip probability.
func NewProxSkip() *ProxSkip { return &ProxSkip{} }

// Name implements core.Protocol.
func (p *ProxSkip) Name() string { return "ProxSkip" }

// Setup implements core.Protocol.
func (p *ProxSkip) Setup(e *core.Engine) error {
	p.nextRound = e.Cfg.TimeBudget
	p.rng = e.RNG().Derive("proxskip")
	return nil
}

// OnTick implements core.Protocol.
func (p *ProxSkip) OnTick(e *core.Engine, now float64) {
	if now < p.nextRound {
		return
	}
	p.nextRound += e.Cfg.TimeBudget
	if !p.rng.Bernoulli(syncProb) {
		return // skip this round's communication: local steps continue
	}
	p.globalSync(e)
}

// globalSync gathers every vehicle's model over a lossy uplink, averages
// the survivors, and pushes the average back over a lossy downlink.
func (p *ProxSkip) globalSync(e *core.Engine) {
	var received [][]float64
	bytes := e.ModelWireBytes()
	for _, v := range e.Vehicles {
		ok := p.linkSurvives(e, bytes)
		p.emitLink(e, v.ID, telemetry.PeerInfra, bytes, ok)
		v.Recv.Record(ok) // server-receive leg, counted per vehicle
		if ok {
			received = append(received, v.Policy.Flat())
		}
	}
	avg := averageFlat(received)
	if avg == nil {
		return
	}
	for _, v := range e.Vehicles {
		ok := p.linkSurvives(e, bytes)
		p.emitLink(e, telemetry.PeerInfra, v.ID, bytes, ok)
		if !ok {
			continue
		}
		flat := append([]float64(nil), avg...)
		// Ignore impossible length-mismatch errors (identical models).
		_ = v.Policy.SetFlat(flat)
	}
}

// emitLink records one cellular leg as a telemetry transfer. The backend is
// idealistically instantaneous, so Elapsed is zero; a lost leg delivers
// nothing and is labeled a wireless loss.
func (p *ProxSkip) emitLink(e *core.Engine, from, to, bytes int, ok bool) {
	if !e.TelemetryEnabled() {
		return
	}
	ev := telemetry.Transfer{
		Time: e.Now(), From: from, To: to, Payload: telemetry.PayloadModel,
		BytesRequested: bytes, Completed: ok,
	}
	if ok {
		ev.BytesDelivered = bytes
	} else {
		ev.Truncated = telemetry.TruncLoss
	}
	e.Emit(ev)
}

// linkSurvives samples one cellular transfer outcome. The paper applies "a
// wireless loss uniformly sampled from the distance-loss lookup table"; a
// cellular leg with HARQ is reliable per packet, so the sampled loss acts
// as an outage probability for the whole transfer (squared: both the radio
// bearer and the backhaul handoff must hold for the multi-second transfer).
func (p *ProxSkip) linkSurvives(e *core.Engine, payloadBytes int) bool {
	if e.Radio.Lossless {
		return true
	}
	dist := p.rng.Uniform(0, e.Radio.Params.MaxRangeMeters)
	per := e.Radio.Table.At(dist)
	good := (1 - per) * (1 - per)
	return p.rng.Bernoulli(good)
}
