package baselines

import (
	"fmt"
	"math"

	"lbchat/internal/core"
	"lbchat/internal/geom"
	"lbchat/internal/telemetry"
)

// RSUL is the road-side-unit baseline [29]: coordinators at intersections
// maintain RSU models, receive models from passing vehicles over the lossy
// V2I radio, aggregate, and send the result back. RSUs share a free backend
// (§IV-B assumes no backend bandwidth constraint) over which they
// periodically average their models.
type RSUL struct {
	// Positions are the RSU deployment sites (road crosses, per [29]).
	Positions []geom.Point

	rsuModels    [][]float64
	rsuSeen      []int
	nextBackbone float64
	lastVisit    []float64
}

// RSU-L timing: RSU models average over the backend every
// backboneInterval seconds, and one vehicle exchanges with an RSU at most
// once per vehicleCooldown seconds.
const (
	backboneInterval = 120
	vehicleCooldown  = 45
)

var _ core.Protocol = (*RSUL)(nil)

// NewRSUL deploys RSUs at the given intersection positions.
func NewRSUL(positions []geom.Point) *RSUL { return &RSUL{Positions: positions} }

// Name implements core.Protocol.
func (p *RSUL) Name() string { return "RSU-L" }

// Setup implements core.Protocol.
func (p *RSUL) Setup(e *core.Engine) error {
	if len(p.Positions) == 0 {
		return fmt.Errorf("baselines: RSU-L needs at least one RSU position")
	}
	if len(e.Vehicles) == 0 {
		return fmt.Errorf("baselines: RSU-L needs vehicles")
	}
	init := e.Vehicles[0].Policy.Flat()
	p.rsuModels = make([][]float64, len(p.Positions))
	for i := range p.rsuModels {
		p.rsuModels[i] = append([]float64(nil), init...)
	}
	p.rsuSeen = make([]int, len(p.Positions))
	p.lastVisit = make([]float64, len(e.Vehicles))
	for i := range p.lastVisit {
		p.lastVisit[i] = math.Inf(-1)
	}
	p.nextBackbone = backboneInterval
	return nil
}

// OnTick implements core.Protocol.
func (p *RSUL) OnTick(e *core.Engine, now float64) {
	if now >= p.nextBackbone {
		p.backboneSync()
		p.nextBackbone += backboneInterval
	}
	for _, v := range e.Vehicles {
		if v.BusyUntil > now || now-p.lastVisit[v.ID] < vehicleCooldown {
			continue
		}
		rsu, dist := p.nearestRSU(e, v.ID)
		// Vehicles associate with an RSU only well inside radio range —
		// starting a 52 MB transfer at the cell edge would always fail.
		if rsu < 0 || dist > 0.7*e.Radio.Params.MaxRangeMeters {
			continue
		}
		p.visit(e, v, rsu)
	}
}

// nearestRSU returns the closest RSU to the vehicle's current position.
func (p *RSUL) nearestRSU(e *core.Engine, vid int) (int, float64) {
	pos := e.Trace.At(vid, e.Now())
	best, bestD := -1, math.Inf(1)
	for i, rp := range p.Positions {
		if d := pos.Dist(rp); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// visit runs one vehicle↔RSU exchange: lossy upload, RSU-side aggregation,
// lossy download of the aggregate.
func (p *RSUL) visit(e *core.Engine, v *core.Vehicle, rsu int) {
	now := e.Now()
	start := now
	rsuPos := p.Positions[rsu]
	dist := func(elapsed float64) float64 { return e.Trace.At(v.ID, start+elapsed).Dist(rsuPos) }
	bytes := e.ModelWireBytes()
	// The exchange window is the time the vehicle stays inside the RSU's
	// radio range (capped), estimated from its shared route — RSUs are
	// fixed, so this is even easier than the vehicle-to-vehicle case.
	window := p.contactWindow(e, v.ID, rsuPos)

	up := e.Radio.SimulateTransfer(bytes, dist, v.Bandwidth, window, e.RNG())
	e.Emit(telemetry.Transfer{
		Time: now, From: v.ID, To: telemetry.PeerInfra, Payload: telemetry.PayloadModel,
		BytesRequested: bytes, BytesDelivered: up.BytesDelivered,
		Completed: up.Completed, Elapsed: up.Elapsed, Truncated: up.Truncated,
	})
	elapsed := up.Elapsed
	if up.Completed {
		// RSU aggregates the received model into its model with a bounded
		// step, so it tracks the fleet instead of averaging history away.
		m := p.rsuModels[rsu]
		flat := v.Policy.Flat()
		w := math.Max(0.4, 1/float64(p.rsuSeen[rsu]+2))
		for i := range m {
			m[i] = (1-w)*m[i] + w*flat[i]
		}
		p.rsuSeen[rsu]++
	}
	// A cold RSU (no uploads yet) has nothing useful to send back: its
	// model is still the shared initialization.
	if p.rsuSeen[rsu] == 0 {
		v.BusyUntil = now + elapsed
		p.lastVisit[v.ID] = now
		return
	}
	down := e.Radio.SimulateTransfer(bytes, func(el float64) float64 { return dist(elapsed + el) },
		v.Bandwidth, window-elapsed, e.RNG())
	e.Emit(telemetry.Transfer{
		Time: now, From: telemetry.PeerInfra, To: v.ID, Payload: telemetry.PayloadModel,
		BytesRequested: bytes, BytesDelivered: down.BytesDelivered,
		Completed: down.Completed, Elapsed: down.Elapsed, Truncated: down.Truncated,
	})
	v.Recv.Record(down.Completed)
	elapsed += down.Elapsed
	if down.Completed {
		agg := append([]float64(nil), p.rsuModels[rsu]...)
		e.Events.Schedule(now+elapsed, func() {
			// Vehicle blends the RSU aggregate with its local model,
			// keeping the larger share local: the RSU model is a few
			// visits stale.
			_ = core.MergeModels(v, agg, 0.65, 0.35)
		})
	}
	v.BusyUntil = now + elapsed
	p.lastVisit[v.ID] = now
}

// contactWindow estimates how long the vehicle remains within radio range
// of the RSU, capped at 120 s — clamped to the engine's ContactHorizon so
// the scan never reads past the span a sliding-window trace reserves.
func (p *RSUL) contactWindow(e *core.Engine, vid int, rsuPos geom.Point) float64 {
	window := 120.0
	if h := e.Cfg.ContactHorizon; h > 0 && h < window {
		window = h
	}
	now := e.Now()
	maxRange := e.Radio.Params.MaxRangeMeters
	for dt := 0.0; dt < window; dt += 2 {
		if e.Trace.At(vid, now+dt).Dist(rsuPos) > maxRange {
			return dt
		}
	}
	return window
}

// backboneSync averages all RSU models over the free backend.
func (p *RSUL) backboneSync() {
	avg := averageFlat(p.rsuModels)
	if avg == nil {
		return
	}
	for i := range p.rsuModels {
		copy(p.rsuModels[i], avg)
	}
}
