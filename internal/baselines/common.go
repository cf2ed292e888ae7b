package baselines

import (
	"math"

	"lbchat/internal/core"
	"lbchat/internal/telemetry"
)

// exchangeModels ships both vehicles' models compressed at the given equal
// level, sequentially within the window. It returns each direction's
// decompressed payload (nil when the transfer failed) and the total elapsed
// time. Receive counters are recorded on the receiving vehicles.
func exchangeModels(e *core.Engine, a, b *core.Vehicle, psi, window float64) (fromA, fromB []float64, elapsed float64) {
	if psi <= 0 {
		return nil, nil, 0
	}
	bytes := e.CompressedModelBytes(psi)
	e.Emit(telemetry.CompressionChosen{Time: e.Now(), From: a.ID, To: b.ID, Psi: psi, Bytes: bytes})
	e.Emit(telemetry.CompressionChosen{Time: e.Now(), From: b.ID, To: a.ID, Psi: psi, Bytes: bytes})
	recA := e.CompressReconstruct(a.Policy.Flat(), psi)
	resAB := e.SimulateTransfer(bytes, a.ID, b.ID, window)
	b.Recv.Record(resAB.Completed)
	elapsed = resAB.Elapsed
	if resAB.Completed {
		fromA = recA
	}

	recB := e.CompressReconstruct(b.Policy.Flat(), psi)
	resBA := e.SimulateTransfer(bytes, b.ID, a.ID, window-elapsed)
	a.Recv.Record(resBA.Completed)
	elapsed += resBA.Elapsed
	if resBA.Completed {
		fromB = recB
	}
	return fromA, fromB, elapsed
}

// gossip is the model exchange DP and DFL-DDS share: both models compressed
// to the equal level that fits window = min(T_B, contact), shipped A→B then
// B→A, and the pair marked chatted until the exchange is done. deliver runs
// on the exchange's own tick, once per direction whose model arrived (A→B
// first), with the receiver, the sender and the received parameters; the
// merge it returns is scheduled for the exchange's end, so a merge rule can
// capture sender state as it was before either merge ran.
func gossip(e *core.Engine, a, b int, deliver func(to, from int, flat []float64) (merge func())) {
	va, vb := e.Vehicles[a], e.Vehicles[b]
	window := math.Min(e.Cfg.TimeBudget, e.Contact(a, b))
	if window <= 0 {
		return
	}
	psi := core.FitWindowPsi(window, math.Min(va.Bandwidth, vb.Bandwidth), e.ModelWireBytes())
	fromA, fromB, elapsed := exchangeModels(e, va, vb, psi, window)
	doneAt := e.Now() + elapsed
	if fromA != nil {
		e.Events.Schedule(doneAt, deliver(b, a, fromA))
	}
	if fromB != nil {
		e.Events.Schedule(doneAt, deliver(a, b, fromB))
	}
	e.MarkChatted(a, b, doneAt)
}

// averageFlat returns the elementwise mean of the given parameter vectors.
// Empty input returns nil.
func averageFlat(vecs [][]float64) []float64 {
	if len(vecs) == 0 {
		return nil
	}
	out := make([]float64, len(vecs[0]))
	for _, v := range vecs {
		for i, x := range v {
			out[i] += x
		}
	}
	inv := 1 / float64(len(vecs))
	for i := range out {
		out[i] *= inv
	}
	return out
}
