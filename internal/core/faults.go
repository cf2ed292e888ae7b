package core

import (
	"lbchat/internal/coreset"
	"lbchat/internal/dataset"
	"lbchat/internal/radio"
	"lbchat/internal/telemetry"
)

// This file is the engine side of the fault-injection layer: thin hooks
// that consult the internal/faults injector (all no-ops when faults are
// off) plus the salvage and retry primitives the resilient chat path in
// lbchat.go builds on. See DESIGN.md §9.

// VehicleAway reports whether churn currently has the vehicle out of the
// communication system (always false with faults off).
func (e *Engine) VehicleAway(id int) bool {
	return e.faults != nil && e.faults.Away(id)
}

// faultsTick advances the churn processes one engine tick and emits the
// depart/rejoin transitions. It runs on the serial phase, before contact
// scanning, so a departed vehicle disappears from pairing the same tick.
func (e *Engine) faultsTick() {
	if e.faults == nil {
		return
	}
	for _, tr := range e.faults.Tick(e.now) {
		if tr.Rejoin {
			e.Emit(telemetry.FaultInjected{Time: e.now, Fault: telemetry.FaultChurnRejoin, A: tr.Vehicle, B: telemetry.NoPeer})
		} else {
			e.Emit(telemetry.FaultInjected{
				Time: e.now, Fault: telemetry.FaultChurnDepart,
				A: tr.Vehicle, B: telemetry.NoPeer, Value: tr.Until - e.now,
			})
		}
	}
}

// FaultWindow applies the window-truncation fault to a chat's exchange
// window, emitting the injection when it fires. With faults off it returns
// the window unchanged without drawing randomness.
func (e *Engine) FaultWindow(a, b int, window float64) float64 {
	if e.faults == nil {
		return window
	}
	if w, ok := e.faults.TruncateWindow(window); ok {
		e.Emit(telemetry.FaultInjected{Time: e.now, Fault: telemetry.FaultWindowTrunc, A: a, B: b, Value: w})
		return w
	}
	return window
}

// FaultCorruptCoreset applies the payload-corruption fault to a fully
// delivered frames-frame coreset from `from` to `to`, returning how many
// leading frames arrived intact (frames itself when the fault does not
// fire).
func (e *Engine) FaultCorruptCoreset(from, to, frames int) int {
	if e.faults == nil || frames <= 0 {
		return frames
	}
	if keep, ok := e.faults.CorruptPayload(frames); ok {
		e.Emit(telemetry.FaultInjected{
			Time: e.now, Fault: telemetry.FaultPayloadCorrupt,
			A: to, B: from, Value: float64(keep),
		})
		return keep
	}
	return frames
}

// TransferResilient is SimulateTransferPayload plus bounded
// retry-with-backoff: a transfer truncated by wireless loss is re-attempted
// up to Config.Faults.MaxRetries times, each retry preceded by an
// exponentially growing backoff spent from the same window. Retries resend
// the payload from the start (half-duplex, no packet-level resume); the
// receiver keeps the longest intact prefix across attempts. With faults off
// this is exactly one SimulateTransferPayload call.
func (e *Engine) TransferResilient(payload string, bytes, a, b int, deadline float64) radio.TransferResult {
	total := e.SimulateTransferPayload(payload, bytes, a, b, deadline)
	if e.faults == nil {
		return total
	}
	cfg := e.faults.Config()
	backoff := cfg.RetryBackoffSecs
	for attempt := 0; attempt < cfg.MaxRetries && !total.Completed && total.Truncated == radio.TruncLoss; attempt++ {
		remaining := deadline - total.Elapsed - backoff
		if remaining <= 0 {
			break
		}
		res := e.SimulateTransferPayload(payload, bytes, a, b, remaining)
		if !res.Completed && total.BytesDelivered > res.BytesDelivered {
			res.BytesDelivered = total.BytesDelivered
		}
		res.Elapsed += total.Elapsed + backoff
		total = res
		backoff *= 2
	}
	return total
}

// salvageCoreset truncates a coreset to its first `frames` intact items
// with every weight discounted by the delivered fraction frames/total — the
// salvaged prefix still informs Eq. (8) value estimation and data
// expansion, but proportionally to how much of the summary actually made it
// across.
func salvageCoreset(cs *coreset.Coreset, frames int) *coreset.Coreset {
	items := cs.Items()
	if frames >= len(items) {
		return cs
	}
	if frames <= 0 {
		return nil
	}
	discount := float64(frames) / float64(len(items))
	ds := dataset.New(frames)
	for _, it := range items[:frames] {
		ds.Add(it.Sample, it.Weight*discount)
	}
	return coreset.FromDataset(ds)
}
