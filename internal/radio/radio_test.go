package radio

import (
	"math"
	"testing"

	"lbchat/internal/simrand"
)

func TestLossTableMonotone(t *testing.T) {
	lt := DefaultLossTable()
	prev := -1.0
	for d := 0.0; d <= 600; d += 10 {
		per := lt.At(d)
		if per < prev {
			t.Fatalf("loss table not monotone at %vm: %v < %v", d, per, prev)
		}
		if per < 0 || per > 1 {
			t.Fatalf("PER %v out of range at %vm", per, d)
		}
		prev = per
	}
	if lt.At(10_000) != 1 {
		t.Error("beyond table should lose everything")
	}
	if lt.At(-5) != lt.At(0) {
		t.Error("negative distance should clamp to zero")
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams()
	bad.PacketSizeBytes = 0
	if bad.Validate() == nil {
		t.Error("zero packet size accepted")
	}
	bad = DefaultParams()
	bad.MaxTransmissions = 0
	if bad.Validate() == nil {
		t.Error("zero transmission budget accepted")
	}
}

func TestLosslessMode(t *testing.T) {
	m := NewModel(true)
	if got := m.PacketDeliveryProb(400); got != 1 {
		t.Errorf("lossless delivery prob = %v", got)
	}
	// Range still applies even without loss.
	if got := m.PacketDeliveryProb(10_000); got != 0 {
		t.Errorf("out-of-range delivery prob = %v", got)
	}
}

func TestPacketDeliveryImprovedByRetransmission(t *testing.T) {
	m := NewModel(false)
	single := Model{Params: m.Params, Table: m.Table}
	single.Params.MaxTransmissions = 1
	d := 300.0
	if m.PacketDeliveryProb(d) <= single.PacketDeliveryProb(d) {
		t.Error("retransmissions did not improve delivery")
	}
}

func TestExpectedAttemptsBounds(t *testing.T) {
	m := NewModel(false)
	for d := 0.0; d <= 500; d += 50 {
		a := m.attemptsFromPER(m.per(d))
		if a < 1 || a > float64(m.Params.MaxTransmissions) {
			t.Fatalf("attempts %v out of [1, %d] at %vm", a, m.Params.MaxTransmissions, d)
		}
	}
	if got := m.attemptsFromPER(m.per(10_000)); got != float64(m.Params.MaxTransmissions) {
		t.Errorf("out-of-range attempts = %v", got)
	}
}

func TestNumPackets(t *testing.T) {
	m := NewModel(false)
	if m.NumPackets(0) != 0 || m.NumPackets(-5) != 0 {
		t.Error("non-positive payload packets")
	}
	if m.NumPackets(1) != 1 || m.NumPackets(1500) != 1 || m.NumPackets(1501) != 2 {
		t.Error("packet rounding wrong")
	}
}

func TestMessageSuccessProbMonotone(t *testing.T) {
	m := NewModel(false)
	const bytes = 600_000 // a coreset
	prev := 2.0
	for d := 0.0; d <= 500; d += 50 {
		p := m.MessageSuccessProb(bytes, d)
		if p > prev+1e-12 {
			t.Fatalf("success prob not decreasing in distance at %vm", d)
		}
		prev = p
	}
	// Larger payloads are harder to land.
	if m.MessageSuccessProb(52_000_000, 250) >= m.MessageSuccessProb(600_000, 250) {
		t.Error("bigger payload should be less likely to succeed")
	}
	if m.MessageSuccessProb(0, 250) != 1 {
		t.Error("empty payload should always succeed")
	}
}

func TestSimulateTransferCompletesCloseRange(t *testing.T) {
	m := NewModel(false)
	rng := simrand.New(1)
	res := m.SimulateTransfer(600_000, func(float64) float64 { return 20 }, 31e6, 30, rng)
	if !res.Completed {
		t.Fatalf("close-range coreset transfer failed: %+v", res)
	}
	if res.Elapsed <= 0 || res.Elapsed > 2 {
		t.Errorf("elapsed = %v, want ≈0.16s", res.Elapsed)
	}
	if res.BytesDelivered < 600_000 {
		t.Errorf("delivered %d bytes", res.BytesDelivered)
	}
	if res.Truncated != "" {
		t.Errorf("completed transfer reports truncation %q", res.Truncated)
	}
}

func TestSimulateTransferFailsFarRange(t *testing.T) {
	m := NewModel(false)
	fails := 0
	for i := 0; i < 20; i++ {
		rng := simrand.New(uint64(i))
		res := m.SimulateTransfer(52_000_000, func(float64) float64 { return 480 }, 31e6, 60, rng)
		if !res.Completed {
			fails++
		}
	}
	if fails < 18 {
		t.Errorf("far-range 52MB transfers succeeded too often: %d/20 failed", fails)
	}
}

func TestSimulateTransferDeadline(t *testing.T) {
	m := NewModel(true)
	rng := simrand.New(2)
	res := m.SimulateTransfer(52_000_000, func(float64) float64 { return 10 }, 31e6, 5, rng)
	if res.Completed {
		t.Error("transfer needing 13s completed within 5s deadline")
	}
	if res.Elapsed > 5+1e-9 {
		t.Errorf("elapsed %v exceeds deadline", res.Elapsed)
	}
	if res.BytesDelivered <= 0 {
		t.Error("partial transfer delivered nothing")
	}
	if res.Truncated != TruncDeadline {
		t.Errorf("truncation reason = %q, want %q", res.Truncated, TruncDeadline)
	}
}

func TestSimulateTransferOutOfRange(t *testing.T) {
	m := NewModel(false)
	rng := simrand.New(3)
	res := m.SimulateTransfer(1000, func(float64) float64 { return 600 }, 31e6, 10, rng)
	if res.Completed {
		t.Error("out-of-range transfer completed")
	}
	if res.Truncated != TruncRange {
		t.Errorf("truncation reason = %q, want %q", res.Truncated, TruncRange)
	}
}

// TestSimulateTransferLossReason drives a large transfer over a lossy but
// in-range link with an effectively unlimited deadline: the only way it can
// fail is a packet exhausting its retransmission budget, so every failure
// must carry TruncLoss.
func TestSimulateTransferLossReason(t *testing.T) {
	m := NewModel(false)
	fails := 0
	for i := 0; i < 20; i++ {
		rng := simrand.New(uint64(i))
		res := m.SimulateTransfer(52_000_000, func(float64) float64 { return 480 }, 31e6, 600, rng)
		if res.Completed {
			continue
		}
		fails++
		if res.Truncated != TruncLoss {
			t.Fatalf("seed %d: truncation reason = %q, want %q", i, res.Truncated, TruncLoss)
		}
	}
	if fails == 0 {
		t.Error("no lossy-link failures observed; test exercises nothing")
	}
}

func TestContactPriority(t *testing.T) {
	if got := ContactPriority(30, 15); got != 1 {
		t.Errorf("long contact priority = %v", got)
	}
	if got := ContactPriority(7.5, 15); got != 0.5 {
		t.Errorf("half contact priority = %v", got)
	}
	if got := ContactPriority(10, 0); got != 0 {
		t.Errorf("zero budget priority = %v", got)
	}
}

func TestScoreOrdersPairsSensibly(t *testing.T) {
	m := NewModel(false)
	base := PriorityInputs{
		ContactDuration: 30,
		Distance:        50,
		BandwidthA:      31e6,
		BandwidthB:      31e6,
		PayloadBytes:    600_000,
		TimeBudget:      15,
	}
	near := m.Score(base)
	far := base
	far.Distance = 450
	if m.Score(far) >= near {
		t.Error("distant pair scored no lower")
	}
	short := base
	short.ContactDuration = 2
	if m.Score(short) >= near {
		t.Error("brief contact scored no lower")
	}
	slow := base
	slow.BandwidthB = 5e6
	if m.Score(slow) >= near {
		t.Error("slow pair scored no lower")
	}
}

func TestScoreNormalized(t *testing.T) {
	m := NewModel(true)
	in := PriorityInputs{
		ContactDuration: 1000,
		Distance:        0,
		BandwidthA:      m.Params.MaxBandwidthBps,
		BandwidthB:      m.Params.MaxBandwidthBps,
		PayloadBytes:    0,
		TimeBudget:      15,
	}
	// Perfect link at max bandwidth scores exactly 1.
	if got := m.Score(in); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect-link score = %v", got)
	}
}

func TestSimulateTransferInvariants(t *testing.T) {
	m := NewModel(false)
	for seed := uint64(0); seed < 40; seed++ {
		rng := simrand.New(seed)
		bytes := int(rng.Uniform(1, 60e6))
		deadline := rng.Uniform(0.5, 30)
		d0 := rng.Uniform(0, 550)
		drift := rng.Uniform(-15, 15)
		res := m.SimulateTransfer(bytes, func(el float64) float64 { return d0 + drift*el }, 25e6, deadline, rng)
		if res.Elapsed < 0 || res.Elapsed > deadline+1e-9 {
			t.Fatalf("seed %d: elapsed %v outside [0, %v]", seed, res.Elapsed, deadline)
		}
		if res.BytesDelivered < 0 || res.BytesDelivered > bytes+m.Params.PacketSizeBytes {
			t.Fatalf("seed %d: delivered %d of %d", seed, res.BytesDelivered, bytes)
		}
		if res.Completed && res.BytesDelivered < bytes {
			t.Fatalf("seed %d: completed but delivered only %d/%d", seed, res.BytesDelivered, bytes)
		}
	}
}

// TestSimulateTransferTruncationBranches is the table-driven sweep over
// every way a transfer can stop early (and the degenerate inputs that never
// start): the scenario fixes payload, geometry, and budget so exactly one
// truncation branch fires deterministically.
func TestSimulateTransferTruncationBranches(t *testing.T) {
	cases := []struct {
		name      string
		lossless  bool
		bytes     int
		dist      func(float64) float64
		bps       float64
		deadline  float64
		seed      uint64
		completed bool
		truncated string
		wantBytes bool // some bytes must have landed
	}{
		{
			name: "completes in close range", lossless: false,
			bytes: 600_000, dist: func(float64) float64 { return 20 },
			bps: 31e6, deadline: 30, seed: 1,
			completed: true, truncated: "", wantBytes: true,
		},
		{
			name: "deadline expires mid-transfer", lossless: true,
			bytes: 52_000_000, dist: func(float64) float64 { return 10 },
			bps: 31e6, deadline: 5, seed: 2,
			completed: false, truncated: TruncDeadline, wantBytes: true,
		},
		{
			name: "peer out of range at start", lossless: false,
			bytes: 1000, dist: func(float64) float64 { return 600 },
			bps: 31e6, deadline: 10, seed: 3,
			completed: false, truncated: TruncRange,
		},
		{
			name: "peer drifts out of range", lossless: true,
			bytes: 52_000_000, dist: func(el float64) float64 { return 400 + 40*el },
			bps: 31e6, deadline: 60, seed: 4,
			completed: false, truncated: TruncRange, wantBytes: true,
		},
		{
			name: "packet loss kills far-range transfer", lossless: false,
			bytes: 52_000_000, dist: func(float64) float64 { return 480 },
			bps: 31e6, deadline: 600, seed: 0,
			completed: false, truncated: TruncLoss, wantBytes: true,
		},
		{
			name: "zero deadline never starts", lossless: false,
			bytes: 1000, dist: func(float64) float64 { return 20 },
			bps: 31e6, deadline: 0, seed: 5,
			completed: false, truncated: TruncDeadline,
		},
		{
			name: "zero bandwidth never starts", lossless: false,
			bytes: 1000, dist: func(float64) float64 { return 20 },
			bps: 0, deadline: 10, seed: 6,
			completed: false, truncated: TruncDeadline,
		},
		{
			name: "empty payload is trivially complete", lossless: false,
			bytes: 0, dist: func(float64) float64 { return 20 },
			bps: 31e6, deadline: 10, seed: 7,
			completed: true, truncated: "",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewModel(tc.lossless)
			res := m.SimulateTransfer(tc.bytes, tc.dist, tc.bps, tc.deadline, simrand.New(tc.seed))
			if res.Completed != tc.completed {
				t.Errorf("Completed = %v, want %v (%+v)", res.Completed, tc.completed, res)
			}
			if res.Truncated != tc.truncated {
				t.Errorf("Truncated = %q, want %q", res.Truncated, tc.truncated)
			}
			if tc.wantBytes && res.BytesDelivered <= 0 {
				t.Errorf("no bytes delivered: %+v", res)
			}
			if res.Elapsed > tc.deadline+1e-9 {
				t.Errorf("elapsed %v exceeds deadline %v", res.Elapsed, tc.deadline)
			}
		})
	}
}

// TestSimulateTransferPerturbedNilBoost pins the faults-off acceptance
// criterion at the radio layer: a nil boost must reproduce SimulateTransfer
// bit for bit, including the rng draw sequence (checked by comparing a draw
// made after each call).
func TestSimulateTransferPerturbedNilBoost(t *testing.T) {
	m := NewModel(false)
	for seed := uint64(0); seed < 20; seed++ {
		r1, r2 := simrand.New(seed), simrand.New(seed)
		dist := func(el float64) float64 { return 100 + 10*el }
		a := m.SimulateTransfer(5_000_000, dist, 25e6, 20, r1)
		b := m.SimulateTransferPerturbed(5_000_000, dist, nil, 25e6, 20, r2)
		if a != b {
			t.Fatalf("seed %d: results diverge: %+v vs %+v", seed, a, b)
		}
		if x, y := r1.Uniform(0, 1), r2.Uniform(0, 1); x != y {
			t.Fatalf("seed %d: rng draw counts diverge (%v vs %v)", seed, x, y)
		}
	}
}

// TestSimulateTransferPerturbedBoostHurts: a saturating packet-error boost
// must abort a transfer that succeeds cleanly without it.
func TestSimulateTransferPerturbedBoostHurts(t *testing.T) {
	m := NewModel(false)
	dist := func(float64) float64 { return 20 }
	clean := m.SimulateTransferPerturbed(600_000, dist, nil, 31e6, 30, simrand.New(1))
	if !clean.Completed {
		t.Fatalf("baseline transfer failed: %+v", clean)
	}
	jammed := m.SimulateTransferPerturbed(600_000, dist,
		func(float64) float64 { return 1 }, 31e6, 30, simrand.New(1))
	if jammed.Completed {
		t.Fatal("transfer completed through a PER=1 burst")
	}
	if jammed.Truncated != TruncLoss {
		t.Errorf("jammed truncation = %q, want %q", jammed.Truncated, TruncLoss)
	}
	// Partial boost raises expected attempts, so the same payload takes
	// longer when it does survive.
	slow := m.SimulateTransferPerturbed(600_000, dist,
		func(float64) float64 { return 0.3 }, 31e6, 30, simrand.New(42))
	if slow.Completed && slow.Elapsed <= clean.Elapsed {
		t.Errorf("boosted transfer not slower: %v vs %v", slow.Elapsed, clean.Elapsed)
	}
}
