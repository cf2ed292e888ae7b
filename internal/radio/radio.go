package radio

import (
	"fmt"
	"math"

	"lbchat/internal/simrand"
)

// Params holds the physical-layer constants.
type Params struct {
	// PacketSizeBytes is the MTU-sized radio packet (1500 B in the paper).
	PacketSizeBytes int
	// MaxBandwidthBps is the peak link bandwidth in bits/s (31 Mbps).
	MaxBandwidthBps float64
	// MaxRangeMeters is the maximum communication range (500 m).
	MaxRangeMeters float64
	// MaxTransmissions is 1 + the retransmission budget per packet (4).
	MaxTransmissions int
}

// DefaultParams returns the paper's communication parameters.
func DefaultParams() Params {
	return Params{
		PacketSizeBytes:  1500,
		MaxBandwidthBps:  31e6,
		MaxRangeMeters:   500,
		MaxTransmissions: 4,
	}
}

// Validate reports parameter errors.
func (p Params) Validate() error {
	switch {
	case p.PacketSizeBytes <= 0:
		return fmt.Errorf("radio: non-positive packet size %d", p.PacketSizeBytes)
	case p.MaxBandwidthBps <= 0:
		return fmt.Errorf("radio: non-positive bandwidth %g", p.MaxBandwidthBps)
	case p.MaxRangeMeters <= 0:
		return fmt.Errorf("radio: non-positive range %g", p.MaxRangeMeters)
	case p.MaxTransmissions < 1:
		return fmt.Errorf("radio: transmission budget %d < 1", p.MaxTransmissions)
	}
	return nil
}

// LossTable maps distance to per-packet error rate via uniform bins, the
// "distance-loss lookup table" the paper bases its wireless-loss estimate on.
type LossTable struct {
	// BinMeters is the width of each distance bin.
	BinMeters float64
	// PER[i] is the packet error rate for distances in
	// [i*BinMeters, (i+1)*BinMeters). Distances beyond the last bin lose
	// every packet.
	PER []float64
}

// DefaultLossTable reproduces the monotone distance→loss shape of the
// V2X measurement study [13]: near-perfect delivery in close range and a
// steep degradation toward the edge of the 500 m range.
func DefaultLossTable() LossTable {
	return LossTable{
		BinMeters: 50,
		PER: []float64{
			0.01, 0.03, 0.06, 0.10, 0.16,
			0.24, 0.34, 0.46, 0.58, 0.72,
		},
	}
}

// At returns the packet error rate at the given distance.
func (lt LossTable) At(dist float64) float64 {
	if dist < 0 {
		dist = 0
	}
	i := int(dist / lt.BinMeters)
	if i >= len(lt.PER) {
		return 1
	}
	return lt.PER[i]
}

// Model combines physical parameters with a loss table.
type Model struct {
	Params Params
	Table  LossTable
	// Lossless disables wireless loss entirely (the paper's "W/O wireless
	// loss" regime); bandwidth and range limits still apply.
	Lossless bool
}

// NewModel builds a radio model with the paper's defaults.
func NewModel(lossless bool) *Model {
	return &Model{Params: DefaultParams(), Table: DefaultLossTable(), Lossless: lossless}
}

// per returns the effective packet error rate at a distance.
func (m *Model) per(dist float64) float64 {
	if dist > m.Params.MaxRangeMeters {
		return 1
	}
	if m.Lossless {
		return 0
	}
	return m.Table.At(dist)
}

// PacketDeliveryProb returns the probability that one packet is delivered
// within the retransmission budget at the given distance.
func (m *Model) PacketDeliveryProb(dist float64) float64 {
	return m.deliveryProbFromPER(m.per(dist))
}

// deliveryProbFromPER is PacketDeliveryProb for an explicit packet-error
// rate (the perturbed-transfer path layers burst loss on top of the table).
func (m *Model) deliveryProbFromPER(per float64) float64 {
	return 1 - math.Pow(per, float64(m.Params.MaxTransmissions))
}

// attemptsFromPER returns the expected number of transmissions spent per
// packet at packet-error rate per (counting retransmissions, whether or not
// the packet ultimately gets through).
func (m *Model) attemptsFromPER(per float64) float64 {
	if per >= 1 {
		return float64(m.Params.MaxTransmissions)
	}
	// Sum_{k=0}^{T-1} per^k — attempts stop early on success.
	return (1 - math.Pow(per, float64(m.Params.MaxTransmissions))) / (1 - per)
}

// NumPackets returns how many packets a payload of the given size needs.
func (m *Model) NumPackets(bytes int) int {
	if bytes <= 0 {
		return 0
	}
	return (bytes + m.Params.PacketSizeBytes - 1) / m.Params.PacketSizeBytes
}

// MessageSuccessProb returns the probability that every packet of the
// payload survives within its retransmission budget at the given distance —
// the p_ij ingredient of the Eq. (5) priority score.
func (m *Model) MessageSuccessProb(bytes int, dist float64) float64 {
	if bytes <= 0 {
		return 1
	}
	q := m.PacketDeliveryProb(dist)
	if q <= 0 {
		return 0
	}
	return math.Exp(float64(m.NumPackets(bytes)) * math.Log(q))
}

// TransferResult reports the outcome of a simulated transfer.
type TransferResult struct {
	// Completed is true when every packet was delivered before the deadline.
	Completed bool
	// Elapsed is the time spent transmitting (s), whether or not it
	// completed.
	Elapsed float64
	// BytesDelivered counts payload bytes that made it across.
	BytesDelivered int
	// Truncated names why an incomplete transfer stopped: TruncDeadline
	// (ran out of time), TruncRange (peers moved out of radio range), or
	// TruncLoss (a packet exhausted its retransmission budget). Empty when
	// Completed, and when the transfer never started (zero deadline or
	// bandwidth also report TruncDeadline for accounting purposes).
	Truncated string
}

// Truncation reasons for incomplete transfers.
const (
	TruncDeadline = "deadline"
	TruncRange    = "range"
	TruncLoss     = "loss"
)

// SimulateTransfer plays out a payload transfer in one-second slices. dist
// gives the link distance as a function of elapsed time (the vehicles keep
// moving), bps is the negotiated bandwidth, and deadline bounds the total
// time. A slice delivers its packets with the per-packet delivery
// probability; a packet that exhausts its retransmissions aborts the
// transfer (the paper counts such models as not received).
func (m *Model) SimulateTransfer(bytes int, dist func(elapsed float64) float64, bps, deadline float64, rng *simrand.Rand) TransferResult {
	return m.SimulateTransferPerturbed(bytes, dist, nil, bps, deadline, rng)
}

// SimulateTransferPerturbed is SimulateTransfer with an optional
// packet-error perturbation: boost(elapsed) is ADDED to the table's
// packet-error rate (clamped to 1) for the slice starting at elapsed. The
// fault-injection layer uses it to overlay burst-loss episodes without
// touching the loss table. A nil boost makes this byte-identical to
// SimulateTransfer — same math, same rng draws.
func (m *Model) SimulateTransferPerturbed(bytes int, dist func(elapsed float64) float64, boost func(elapsed float64) float64, bps, deadline float64, rng *simrand.Rand) TransferResult {
	const slice = 1.0
	if bytes <= 0 {
		return TransferResult{Completed: true}
	}
	if bps <= 0 || deadline <= 0 {
		return TransferResult{Truncated: TruncDeadline}
	}
	remaining := m.NumPackets(bytes)
	packetBytes := m.Params.PacketSizeBytes
	var elapsed float64
	delivered := 0
	for remaining > 0 {
		if elapsed >= deadline {
			// Clamp: slice-capacity rounding may overshoot by a fraction
			// of a packet, but a transfer can never consume more than its
			// deadline.
			return TransferResult{Elapsed: deadline, BytesDelivered: delivered * packetBytes, Truncated: TruncDeadline}
		}
		d := dist(elapsed)
		if d > m.Params.MaxRangeMeters {
			return TransferResult{Elapsed: elapsed, BytesDelivered: delivered * packetBytes, Truncated: TruncRange}
		}
		per := m.per(d)
		if boost != nil {
			per = math.Min(1, per+boost(elapsed))
		}
		dt := math.Min(slice, deadline-elapsed)
		attempts := m.attemptsFromPER(per)
		packetTime := float64(packetBytes*8) / bps
		sliceCapacity := int(dt / (packetTime * attempts))
		if sliceCapacity <= 0 {
			sliceCapacity = 1
		}
		n := remaining
		if n > sliceCapacity {
			n = sliceCapacity
		}
		// Fatal loss: any of the n packets exhausting its budget kills the
		// transfer.
		q := m.deliveryProbFromPER(per)
		surviveAll := math.Exp(float64(n) * math.Log(math.Max(q, 1e-300)))
		if q < 1 && !rng.Bernoulli(surviveAll) {
			// The abort happens partway through the slice on average.
			return TransferResult{
				Elapsed:        elapsed + dt/2,
				BytesDelivered: (delivered + n/2) * packetBytes,
				Truncated:      TruncLoss,
			}
		}
		delivered += n
		remaining -= n
		elapsed += float64(n) * packetTime * attempts
	}
	got := delivered * packetBytes
	if got > bytes {
		got = bytes
	}
	return TransferResult{Completed: true, Elapsed: elapsed, BytesDelivered: got}
}
