package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"lbchat/internal/compress"
	"lbchat/internal/coreset"
	"lbchat/internal/dataset"
	"lbchat/internal/faults"
	"lbchat/internal/geom"
	"lbchat/internal/metrics"
	"lbchat/internal/model"
	"lbchat/internal/parallel"
	"lbchat/internal/radio"
	"lbchat/internal/sched"
	"lbchat/internal/simrand"
	"lbchat/internal/spatial"
	"lbchat/internal/telemetry"
	"lbchat/internal/trace"
)

// Config parameterizes the co-simulation.
type Config struct {
	// Seed drives every random stream in the run.
	Seed uint64
	// TickSeconds is the engine step (s).
	TickSeconds float64
	// BatchSize is the per-step training batch.
	BatchSize int
	// RecordInterval is the loss-curve sampling period (s).
	RecordInterval float64
	// TimeBudget is T_B, the per-pair exchange budget (15 s in the paper).
	TimeBudget float64
	// ContactHorizon caps contact-duration estimation, which steps the
	// recorded future trace this far ahead (s; ROADMAP item 21).
	ContactHorizon float64
	// CoresetSize is the coreset budget |C| (150 frames in the paper).
	CoresetSize int
	// CoresetMethod selects the construction algorithm (Algorithm 1 layered
	// sampling by default; §V notes sensitivity- and clustering-based
	// alternatives plug in unchanged).
	CoresetMethod coreset.Method
	// LayeringSample is how many samples a full Algorithm-1 rebuild scores:
	// read by the test oracle, and by benchmarks/perf/kernels.go to size its
	// model.per_sample_losses_us row. Production scoring is bounded per leaf.
	LayeringSample int
	// EvalSubset bounds how many coreset samples value assessments use.
	EvalSubset int
	// PsiSamples are the compression levels sampled when fitting φ.
	PsiSamples []float64
	// LambdaC is the Eq. (7) time-award coefficient (loss units per second).
	LambdaC float64
	// ChatCooldown is the minimum time between chats initiated by one
	// vehicle (s); it models the duty cycle of the exchange radio.
	ChatCooldown float64
	// PairCooldown is the minimum re-chat interval for one vehicle pair (s).
	PairCooldown float64
	// BandwidthMinBps is the low end of per-vehicle available bandwidth,
	// sampled uniformly per vehicle up to the radio's peak
	// (radio.Params.MaxBandwidthBps, §IV-A's 31 Mbps).
	BandwidthMinBps float64
	// CompressionScheme selects how model payloads are compressed for the
	// air: top-k delta sparsification [22] (default) or unbiased stochastic
	// quantization — the alternative §III-C notes can be applied unchanged.
	CompressionScheme CompressionScheme
	// Workers bounds the engine's per-tick parallelism (local training and
	// probe evaluation fan out across vehicles). 0 means one worker per
	// available CPU; 1 forces the serial path. Results are bit-identical at
	// every worker count: vehicles touch only private state during the
	// parallel phases and float reductions run in vehicle-index order.
	Workers int
	// Telemetry receives the run's structured event stream (chats,
	// transfers, coreset maintenance, train steps, contact windows). nil
	// disables telemetry at ~zero hot-path cost: every emission site checks
	// the sink before constructing an event. Telemetry never consumes
	// simulation randomness, so run results are bit-identical with any sink
	// (or none), and events are emitted in deterministic order at every
	// worker count.
	Telemetry telemetry.Sink
	// Faults configures the deterministic fault-injection layer
	// (internal/faults, DESIGN.md §9). The zero value disables it: no
	// injector is built, no extra randomness is drawn, and runs behave
	// exactly as without the layer.
	Faults faults.Config
	// Model configures the policy architecture.
	Model model.Config
}

const (
	// coresetRefresh is the minimum age (s) before a vehicle refreshes its
	// coreset through its partition tree; between refreshes the cheap
	// merge-and-reduce path maintains it (§III-D's two-speed updating).
	coresetRefresh = 120
	// trainInterval is the virtual time between one vehicle's local training
	// steps (s).
	trainInterval = 2
	// paperFrameBytes is the over-the-air size of one coreset frame (the
	// paper's 150-frame coreset is ≈0.6 MB ⇒ 4 kB per frame).
	paperFrameBytes = 4_000
	// paperModelBytes is the over-the-air size of one uncompressed model.
	// The simulation trains compact stand-in networks, but the radio layer
	// must see the PAPER's payload economics — a 52 MB imitation model
	// takes ≈13.4 s at 31 Mbps, comparable to T_B, which is the whole
	// tension LbChat's compression optimization resolves.
	paperModelBytes = 52_000_000
	// compressionConcentration calibrates the stand-in model's top-k
	// degradation to a large net's. Big over-parameterized models tolerate
	// top-k sparsification gracefully (updates concentrate in few large
	// coordinates [20][22]); a compact dense stand-in does not. When a
	// payload is compressed to byte-fraction ψ, the stand-in keeps
	// ψ^compressionConcentration of its delta coordinates, reproducing the
	// gentle loss-vs-ψ curve the paper's 52 MB model would show.
	compressionConcentration = 1.0 / 3
)

// DefaultConfig returns the experiment defaults (paper values where the
// paper gives them).
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		TickSeconds:     1,
		BatchSize:       16,
		RecordInterval:  60,
		TimeBudget:      15,
		ContactHorizon:  120,
		CoresetSize:     150,
		CoresetMethod:   coreset.MethodLayered,
		LayeringSample:  384,
		EvalSubset:      64,
		PsiSamples:      []float64{0.05, 0.2, 0.5, 1.0},
		LambdaC:         0.0008,
		ChatCooldown:    75,
		PairCooldown:    150,
		BandwidthMinBps: 20e6,
		Model:           model.DefaultConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.TickSeconds <= 0:
		return fmt.Errorf("core: non-positive tick %g", c.TickSeconds)
	case c.BatchSize <= 0:
		return fmt.Errorf("core: non-positive batch size %d", c.BatchSize)
	case c.TimeBudget <= 0:
		return fmt.Errorf("core: non-positive time budget %g", c.TimeBudget)
	case c.CoresetSize <= 0:
		return fmt.Errorf("core: non-positive coreset size %d", c.CoresetSize)
	case c.BandwidthMinBps <= 0:
		return fmt.Errorf("core: non-positive minimum bandwidth %g", c.BandwidthMinBps)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return c.Model.Validate()
}

// Vehicle is one fleet member's live training state.
type Vehicle struct {
	// ID indexes the vehicle in the fleet and the mobility trace.
	ID int
	// Policy is the local model x_i.
	Policy *model.Policy
	// Data is the (expanding) local dataset D_i.
	Data *dataset.Dataset
	// Core is the current coreset C_i (nil until first built).
	Core *coreset.Coreset
	// Tree is the vehicle's merge-and-reduce partition tree over Data,
	// created by the first EnsureCoreset refresh (nil until then). Absorbs
	// extend it so appended ranges mark their covering leaves dirty.
	Tree *coreset.Tree
	// CoreBuiltAt is when the coreset was last rebuilt via Algorithm 1.
	CoreBuiltAt float64
	// Bandwidth is the vehicle's available bandwidth B_i (bits/s).
	Bandwidth float64
	// BusyUntil blocks new chats while a pairwise exchange is in flight.
	BusyUntil float64
	// NextChatAt enforces the chat cooldown.
	NextChatAt float64
	// Recv counts model-transfer outcomes toward the §IV-C receive rate.
	Recv metrics.ReceiveStats

	// CoresetSizeOverride, when positive, replaces Config.CoresetSize for
	// this vehicle — the adaptive-coreset-size variant tunes it per vehicle
	// from observed contact durations.
	CoresetSizeOverride int
	// ContactEMA tracks an exponential moving average of this vehicle's
	// observed contact durations (s); 0 until the first encounter.
	ContactEMA float64

	nextTrain float64
	rng       *simrand.Rand
}

// RNG returns the vehicle's private random stream.
func (v *Vehicle) RNG() *simrand.Rand { return v.rng }

// Protocol is a pluggable communication strategy evaluated on the engine.
type Protocol interface {
	// Name labels metrics and output rows.
	Name() string
	// Setup runs once before the simulation loop.
	Setup(e *Engine) error
	// OnTick runs every engine tick after local training and event
	// processing; it is where encounters are detected and exchanges happen.
	OnTick(e *Engine, now float64)
}

// Engine is the co-simulation.
type Engine struct {
	Cfg      Config
	Vehicles []*Vehicle
	// Trace is the fleet mobility trace, resident or windowed. The engine
	// advances it once per tick and only ever reads [now, now +
	// ContactHorizon + TimeBudget], which is the span it reserves on a
	// windowed trace.
	Trace *trace.Trace
	Radio *radio.Model
	Probe []dataset.Weighted

	// LossCurve is the average probe loss over time.
	LossCurve metrics.Curve
	// Events is the deferred-effect queue (transfer completions).
	Events sched.Queue

	rng        *simrand.Rand
	now        float64
	nextRecord float64
	initFlat   []float64
	// plans are the delta plans of a chat's two models: filled from each
	// side's parameters when the chat starts compressing, they serve every
	// ψ sample of its φ fit and the transfer that follows. Chats run one
	// after another inside OnTick and vehicles do not train there, so two
	// plans reused across chats are enough; the exported Compress* wrappers
	// borrow the first.
	plans [2]compress.DeltaPlan

	// tickIndex counts completed engine ticks; it is the integer key of the
	// due-time calendar (e.now accumulates float rounding, tickIndex never
	// does).
	tickIndex int64
	// invTick is 1/TickSeconds, hoisted so dueTick multiplies instead of
	// divides on every re-enqueue.
	invTick float64
	// calendar is the due-time calendar queue over vehicle ids: each vehicle
	// is enqueued at the tick its nextTrain comes due and re-enqueued after
	// every step, so discovering the tick's due set costs O(due), not
	// O(fleet). Buckets are keyed never-late (see dueTick) and lazily
	// re-checked at dequeue, so float drift between e.now and tickIndex can
	// cost a harmless early pop but never a late one.
	calendar *sched.Calendar
	// dueIDs and popScratch are trainTick's reused id scratch: the tick's
	// due set in ascending vehicle order, and the raw calendar pop feeding
	// it. Ids, not pointers, so the scratch pins no departed vehicles.
	dueIDs     []int32
	popScratch []int32
	// stepFn and probeFn are the per-vehicle phase bodies (stepDue,
	// probeOne) bound once at construction, so dispatching a tick's phases
	// allocates no closures.
	stepFn  func(i int)
	probeFn func(i int)

	// tel caches the configured telemetry sink and obs its optional side
	// channel (telemetry.Observer): wall time, calendar, leaf-cache
	// and chunk statistics go to obs by metric name, never into the event
	// stream. Both nil when telemetry is disabled; obs nil whenever the sink
	// only records events.
	tel telemetry.Sink
	obs telemetry.Observer
	// stepScratch carries per-vehicle training outcomes out of the parallel
	// phase so events are emitted serially in vehicle-index order.
	stepScratch []stepOutcome
	// open is the open contact windows, (A, B)-ascending, each with the
	// time it opened: the previous scanContacts merge's output, which is
	// exactly the pairs that were in range then. openNext is the spare
	// buffer the next merge writes before the two swap, so a steady tick
	// allocates nothing. Both stay empty when telemetry is off.
	open, openNext []openContact
	// faults is the run's fault injector; nil when Cfg.Faults is the zero
	// value, in which case every fault hook is a no-op.
	faults *faults.Injector

	// spatialIdx is the pair index (cell size = radio range + skinMeters).
	// skin is the Verlet list it last enumerated: the pairs within radio
	// range + skinMeters of each other on skinRow, a copy of the row they
	// were found on (empty before the first enumeration), at tickIndex
	// skinTick — the row itself may lie ahead of that tick. inRange is the
	// in-range vehicle pairs scanInRange filtered out of skin for the time
	// inRangeAt (NaN until the first scan): the one list the contact scan and
	// CandidatePairs both read. freeMask is CandidatePairs' per-vehicle free
	// flags and matchTaken GreedyMatch's vehicle-taken set. All of them are
	// reused scratch, touched only from the serial section of a tick.
	spatialIdx *spatial.Index
	skin       []spatial.Pair
	skinRow    []geom.Point
	skinTick   int64
	inRange    []spatial.Pair
	inRangeAt  float64
	freeMask   []bool
	matchTaken []bool
	// pairChatAt is when each vehicle pair last chatted (MarkChatted's now),
	// keyed by the ordered pair (A < B) whichever side was named first: the
	// per-pair cooldown's state.
	pairChatAt map[spatial.Pair]float64
	// lossScratch is the reused per-vehicle loss buffer probe evaluation
	// reduces from in id order.
	lossScratch []float64
}

// openContact is one open contact window: the vehicle pair (A < B) and the
// time it opened.
type openContact struct {
	A, B int
	At   float64
}

// stepOutcome is one vehicle's training work within one tick.
type stepOutcome struct {
	steps  int
	loss   float64
	wallNs int64
}

// NewEngine builds a fleet over the given mobility trace and local datasets.
// All vehicles start from one model initialization (the paper's
// assumption), built once and cloned into each, but distinct random
// streams.
//
// The trace may be resident or windowed; a windowed trace is reserved to
// the engine's lookahead — ContactHorizon plus TimeBudget past the cursor —
// and advanced once per tick, so results are bit-identical either way while
// a streamed run's trace working set stays O(window) chunks.
func NewEngine(cfg Config, tr *trace.Trace, datasets []*dataset.Dataset, rm *radio.Model, probe []dataset.Weighted) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := rm.Params.Validate(); err != nil {
		return nil, err
	}
	maxBps := rm.Params.MaxBandwidthBps
	if cfg.BandwidthMinBps > maxBps {
		return nil, fmt.Errorf("core: minimum bandwidth %g above the radio's peak %g", cfg.BandwidthMinBps, maxBps)
	}
	if tr.NumTicks() == 0 {
		return nil, fmt.Errorf("core: trace has %d ticks; a run needs at least one", tr.NumTicks())
	}
	if tr.NumVehicles() != len(datasets) {
		return nil, fmt.Errorf("core: trace has %d vehicles, got %d datasets", tr.NumVehicles(), len(datasets))
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	root := simrand.New(cfg.Seed)
	e := &Engine{
		Cfg:        cfg,
		Trace:      tr,
		Radio:      rm,
		Probe:      probe,
		rng:        root.Derive("engine"),
		tel:        cfg.Telemetry,
		spatialIdx: spatial.New(rm.Params.MaxRangeMeters + skinMeters),
		inRangeAt:  math.NaN(),
		freeMask:   make([]bool, len(datasets)),
		pairChatAt: make(map[spatial.Pair]float64),
	}
	e.invTick = 1 / cfg.TickSeconds
	e.stepFn = e.stepDue
	e.probeFn = e.probeOne
	e.calendar = sched.NewCalendar(len(datasets))
	e.obs, _ = e.tel.(telemetry.Observer)
	// The engine's deepest lookahead past the cursor: a contact scan
	// reaches ContactHorizon ahead and an in-flight transfer samples
	// distances up to its deadline (≤ TimeBudget) past its start, with one
	// tick of slack for the snap-to-tick clamp. The trailing span keeps the
	// window's own default. All three calls do nothing on a resident trace.
	tr.Reserve(0, cfg.ContactHorizon+cfg.TimeBudget+cfg.TickSeconds)
	if e.obs != nil {
		tr.SetChunkObserver(e.observeChunk)
	}
	if err := tr.Advance(0); err != nil {
		return nil, fmt.Errorf("core: loading initial trace window: %w", err)
	}
	if cfg.Faults.Enabled() {
		e.faults = faults.NewInjector(cfg.Faults, root.Derive("faults"), tr.NumVehicles())
	}
	initPolicy, err := model.New(cfg.Model, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("core: building reference init: %w", err)
	}
	e.initFlat = initPolicy.Flat()
	for i, d := range datasets {
		vr := root.DeriveIndexed("vehicle", i)
		e.Vehicles = append(e.Vehicles, &Vehicle{
			ID:        i,
			Policy:    initPolicy.Clone(), // the one shared initialization
			Data:      d,
			Bandwidth: vr.Uniform(cfg.BandwidthMinBps, maxBps),
			rng:       vr,
			// Stagger training so vehicles do not all step on the same tick.
			nextTrain: vr.Uniform(0, trainInterval),
		})
	}
	for _, v := range e.Vehicles {
		e.calendar.Schedule(int32(v.ID), e.dueTick(v.nextTrain))
	}
	return e, nil
}

// Now returns the current virtual time (s).
func (e *Engine) Now() float64 { return e.now }

// Run drives the co-simulation for duration seconds of virtual time under
// the given protocol.
func (e *Engine) Run(p Protocol, duration float64) error {
	return e.RunContext(context.Background(), p, duration)
}

// RunContext drives the co-simulation for duration seconds of virtual time
// under the given protocol, stopping early when ctx is canceled. The
// cancellation check runs once per tick; on cancellation the engine returns
// ctx.Err() with its state (loss curve, vehicles, receive stats) intact and
// consistent up to the last completed tick, so callers can surface a partial
// result.
//
// A windowed trace source is advanced to the cursor tick before each step;
// a chunk decode failure aborts the run with the position-annotated error,
// and a lookup that escapes the reserved window (a *trace.WindowViolation
// panic from the strict-window path) is returned as an error rather than
// crashing the process.
func (e *Engine) RunContext(ctx context.Context, p Protocol, duration float64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if v, ok := r.(*trace.WindowViolation); ok {
				err = fmt.Errorf("core: trace lookup escaped the reserved window at t=%gs: %w", e.now, v)
				return
			}
			panic(r)
		}
	}()
	if err := p.Setup(e); err != nil {
		return fmt.Errorf("core: protocol %s setup: %w", p.Name(), err)
	}
	e.LossCurve.Name = p.Name()
	e.recordLoss() // t = 0 baseline
	e.nextRecord = e.Cfg.RecordInterval
	for e.now < duration {
		if err := ctx.Err(); err != nil {
			e.closeContacts()
			return err
		}
		if err := e.advanceTrace(); err != nil {
			return err
		}
		e.Events.RunUntil(e.now)
		e.faultsTick()
		e.scanContacts()
		e.trainTick()
		p.OnTick(e, e.now)
		if e.now >= e.nextRecord {
			e.recordLoss()
			e.nextRecord += e.Cfg.RecordInterval
		}
		e.now += e.Cfg.TickSeconds
		e.tickIndex++
	}
	e.Events.RunUntil(duration)
	e.recordLoss()
	e.closeContacts()
	return nil
}

// advanceTrace moves a windowed trace's cursor to the current tick; a
// resident trace's Advance returns at once. NewEngine's Validate guarantees
// a positive tick interval.
func (e *Engine) advanceTrace() error {
	if err := e.Trace.Advance(int(e.now / e.Trace.DT())); err != nil {
		return fmt.Errorf("core: advancing trace window to t=%gs: %w", e.now, err)
	}
	return nil
}

// TelemetryEnabled reports whether the engine has a telemetry sink, so
// protocols can skip building expensive event payloads.
func (e *Engine) TelemetryEnabled() bool { return e.tel != nil }

// Emit forwards an event to the configured telemetry sink; without one it
// is a no-op. Protocol implementations should guard construction of
// non-trivial events with TelemetryEnabled.
func (e *Engine) Emit(ev telemetry.Event) {
	if e.tel != nil {
		e.tel.Emit(ev)
	}
}

// skinMeters is the Verlet skin s: scanInRange keeps the pairs within
// r + s of each other and filters them on every later row until vehicles
// have moved far enough to bring a pair from beyond r + s into range. Sized
// from a sweep on fleet-scan (EXPERIMENTS.md "Hot loops", *Fleet tick: a
// Verlet skin* and *Fleet tick: a centred skin*): a vehicle covers at most
// 20 m per 1 s tick there, and throughput peaked between 150 and 300 m.
const skinMeters = 200

// skinSlack shrinks the drift budget by a relative 1e-9 (0.2 µm of the
// 200 m) so the skin list stays a superset of the in-range pairs in float
// arithmetic too. Every distance the argument uses is a correctly rounded
// difference of two trace coordinates, so its rounding error is relative
// to the distance itself — a few ulps, ≈ 1e-15 of r + s — and not to the
// coordinates' magnitude; the slack covers it a millionfold at any
// magnitude.
const skinSlack = 1e-9

// scanInRange lists the fleet's in-range pairs at now into e.inRange in
// canonical (A, B)-ascending order, and stamps the list with now. It
// filters the skin list with the in-range predicate on the current row,
// first re-enumerating the skin — the engine's one Rebuild and Pairs, at
// radius r + skinMeters — when skinStale says the row has drifted too far
// from the one the skin was found on. Every pair within r now was within
// r + skinMeters then, and filtering keeps Pairs' order, so the list is
// exactly what Pairs at r would return (the brute oracle in oracle_test.go
// checks it every tick). The row is read once and the skin keeps its own
// copy, so the list outlives the window's next Advance.
//
// A rebuilt skin is centred ahead: it is found on the recorded row
// skinAhead ticks past now, provided that row is itself within the drift
// budget of the current one. Motion being near-linear over a few seconds,
// the skin then holds from now until about as far past the ahead row, where
// one found on the current row spends half its budget on ticks already
// gone. Exactness never rests on the guess: skinStale still checks every
// row against the one the skin was found on, and a bad guess costs an
// earlier rebuild.
func (e *Engine) scanInRange() []spatial.Pair {
	row := e.Trace.RowAt(e.now)
	r := e.Radio.Params.MaxRangeMeters
	if skinStale(row, e.skinRow) {
		at := row
		if k := e.skinAhead(); k > 0 {
			if ahead := e.Trace.RowAt(e.now + float64(k)*e.Cfg.TickSeconds); !skinStale(row, ahead) {
				at = ahead
			}
		}
		e.spatialIdx.Rebuild(at)
		e.skin = e.spatialIdx.Pairs(e.skin[:0], r+skinMeters)
		e.skinRow = append(e.skinRow[:0], at...)
		e.skinTick = e.tickIndex
		if e.obs != nil {
			e.obs.Observe(telemetry.MSkinRebuilds, 1)
		}
	}
	e.inRange = spatial.FilterWithin(e.inRange, e.skin, row, r)
	e.inRangeAt = e.now
	return e.inRange
}

// skinAhead returns how many ticks ahead of now a skin rebuilt now is
// found: half the ticks the outgoing skin lasted, none before the first
// skin, and at most TimeBudget's worth, so the row read lies inside the
// span a windowed trace keeps reserved past its cursor for transfers.
// A skin found c ticks ahead lasts about c + L, where L is a skin's life
// found on the current row, so the look-ahead settles where it doubles
// that life, at c = L.
func (e *Engine) skinAhead() int64 {
	if len(e.skinRow) == 0 {
		return 0
	}
	k := (e.tickIndex - e.skinTick) / 2
	if limit := e.Cfg.TimeBudget / e.Cfg.TickSeconds; limit < float64(k) {
		k = int64(limit)
	}
	return k
}

// skinStale reports whether a skin list found on skinRow may miss a pair
// in range on row: when the lengths differ (the first scan, before any
// skin), on a NaN or infinite drift, and once the two largest per-vehicle
// displacements between the rows sum past skinMeters (less skinSlack).
// Below that, any two vehicles closed in by less than skinMeters, so a pair
// within r on row was within r + skinMeters on skinRow. The drift is
// measured from the rows themselves, so a teleport, a clock that runs
// backwards or a skin row ahead of now is caught like any other move.
func skinStale(row, skinRow []geom.Point) bool {
	if len(row) != len(skinRow) {
		return true
	}
	// top1 ≥ top2 are the two largest squared displacements; total sums
	// them all, so one NaN or infinite displacement makes it non-finite.
	var top1, top2, total float64
	for i, p := range row {
		o := skinRow[i]
		dx, dy := p.X-o.X, p.Y-o.Y
		d := dx*dx + dy*dy
		total += d
		if d > top2 {
			if d > top1 {
				top1, top2 = d, top1
			} else {
				top2 = d
			}
		}
	}
	return !(total <= math.MaxFloat64) || math.Sqrt(top1)+math.Sqrt(top2) > skinMeters*(1-skinSlack)
}

// scanContacts diffs the fleet's in-range pair set against the previous
// tick and emits contact open/close events. It runs only with telemetry
// enabled. It lists the tick's in-range pairs (scanInRange, which
// CandidatePairs then reuses) and merges them with the open-contact list;
// every pair produces at most one event and both sequences are
// (a, b)-ascending, so the merged event stream is byte-identical to a full
// O(N²) pair-by-pair diff (the reference oracle in oracle_test.go). The
// merge writes every pair still in range — continuing ones with their open
// time, new ones at now — in order into the spare buffer, which then
// becomes the open list: no map, no sort, and no allocation once both
// buffers have grown.
func (e *Engine) scanContacts() {
	if e.tel == nil {
		return
	}
	inRange := e.scanInRange()
	open, next := e.open, e.openNext[:0]
	i, j := 0, 0
	for i < len(inRange) || j < len(open) {
		var cmp int
		switch {
		case i == len(inRange):
			cmp = 1
		case j == len(open):
			cmp = -1
		case inRange[i].A != open[j].A:
			cmp = inRange[i].A - open[j].A
		default:
			cmp = inRange[i].B - open[j].B
		}
		switch {
		case cmp < 0: // newly in range
			p := inRange[i]
			next = append(next, openContact{A: p.A, B: p.B, At: e.now})
			e.tel.Emit(telemetry.ContactOpen{Time: e.now, A: p.A, B: p.B})
			i++
		case cmp > 0: // left range
			c := open[j]
			e.tel.Emit(telemetry.ContactClose{Time: e.now, A: c.A, B: c.B, Duration: e.now - c.At})
			j++
		default: // still in contact
			next = append(next, open[j])
			i++
			j++
		}
	}
	e.open, e.openNext = next, open
}

// closeContacts flushes still-open contact windows at the end (or
// cancellation) of a run: a walk of the open list, so in pair-index order.
func (e *Engine) closeContacts() {
	if e.tel == nil {
		return
	}
	for _, c := range e.open {
		e.tel.Emit(telemetry.ContactClose{Time: e.now, A: c.A, B: c.B, Duration: e.now - c.At})
	}
	e.open = e.open[:0]
}

// workers resolves the engine's per-tick parallelism.
func (e *Engine) workers() int { return parallel.Resolve(e.Cfg.Workers) }

// dueTickEps bounds how close the tick-offset quotient must sit to an
// integer before dueTick refuses to round it up: far wider than any float
// drift the accumulated e.now can carry, far narrower than a real schedule
// offset.
const dueTickEps = 1e-7

// dueTick maps a virtual due time onto the calendar's integer tick key:
// the first tick whose now reaches at — the ceiling of the tick offset —
// except within dueTickEps of an integer quotient, where float error could
// over-round and fire a tick LATE (after nextTrain ≤ now first held); there
// it conservatively floors instead. A conservative-early pop is always
// safe: calendarDue re-checks nextTrain against now and re-enqueues.
func (e *Engine) dueTick(at float64) int64 {
	if at <= e.now {
		return e.tickIndex
	}
	q := (at - e.now) * e.invTick
	k := int64(q)
	if q-float64(k) > dueTickEps {
		k++
	}
	return e.tickIndex + k
}

// reDueTick is dueTick for re-enqueues from the current tick's pop: at
// least one tick ahead, so a conservative-early pop cannot respin in place.
func (e *Engine) reDueTick(at float64) int64 {
	if t := e.dueTick(at); t > e.tickIndex {
		return t
	}
	return e.tickIndex + 1
}

// calendarDue discovers the tick's due set by popping the calendar queue:
// O(1) on an idle tick, O(due) otherwise. Popped ids arrive in ascending
// vehicle order and each is re-checked against its float due time: a
// conservative-early pop goes back on the wheel, and a departed vehicle
// skips its due steps — the model stays frozen (and stale on rejoin) but
// the schedule advances past now so it does not burst-train on return —
// before it is re-enqueued for its post-absence step. Churn moves wheel
// entries forward, it never strands or leaks them.
func (e *Engine) calendarDue(due []int32) ([]int32, int) {
	popped, buckets := e.calendar.PopDue(e.tickIndex, e.popScratch[:0])
	e.popScratch = popped
	for _, id := range popped {
		v := e.Vehicles[id]
		if v.nextTrain > e.now {
			e.calendar.Schedule(id, e.reDueTick(v.nextTrain))
			continue
		}
		if e.VehicleAway(v.ID) {
			for v.nextTrain <= e.now {
				v.nextTrain += trainInterval
			}
			e.calendar.Schedule(id, e.reDueTick(v.nextTrain))
			continue
		}
		due = append(due, id)
	}
	return due, buckets
}

// stepDue runs vehicle dueIDs[i]'s pending local-SGD steps and records the
// outcome (and wall time, when the sink observes) into index-addressed
// stepScratch for trainTick's serial emission pass, which reads it only
// with telemetry on. Only a vehicle with data steps, and the wall time is
// observed only for one that did, so the clock is read only for those.
func (e *Engine) stepDue(i int) {
	v := e.Vehicles[e.dueIDs[i]]
	var out stepOutcome
	var start time.Time
	timed := e.obs != nil && v.Data.Len() > 0
	if timed {
		start = time.Now()
	}
	for v.nextTrain <= e.now {
		if batch := v.Data.SampleBatch(e.Cfg.BatchSize, v.rng); len(batch) > 0 {
			out.loss = v.Policy.TrainStep(batch)
			out.steps++
		}
		v.nextTrain += trainInterval
	}
	if timed {
		out.wallNs = time.Since(start).Nanoseconds()
	}
	e.stepScratch[i] = out
}

// trainTick runs every vehicle's due local-SGD steps. Each vehicle touches
// only its own policy, dataset cursor, and private RNG stream, so the due
// vehicles train concurrently; training order across vehicles never mattered
// (no shared state), so the result is bit-identical to the serial loop.
func (e *Engine) trainTick() {
	due, buckets := e.calendarDue(e.dueIDs[:0])
	e.dueIDs = due
	if len(due) == 0 {
		e.observeSched(0, buckets)
		return
	}
	// The parallel phase records each vehicle's outcome into index-addressed
	// scratch; with telemetry on, events are then emitted serially in
	// vehicle-index order so the stream is identical at every worker count.
	// The phase body is a pre-bound method (stepFn), not a per-tick
	// closure, so a steady tick allocates nothing.
	if cap(e.stepScratch) < len(due) {
		e.stepScratch = make([]stepOutcome, len(due))
	}
	parallel.ForEach(e.workers(), len(due), e.stepFn)
	e.observeSched(len(due), buckets)
	// Re-enqueue each stepped vehicle at its next due tick, serially — the
	// wheel is single-writer scratch like every engine index.
	for _, id := range due {
		e.calendar.Schedule(id, e.reDueTick(e.Vehicles[id].nextTrain))
	}
	if e.tel == nil {
		return
	}
	for i, id := range due {
		out := e.stepScratch[i]
		if out.steps == 0 {
			continue
		}
		e.tel.Emit(telemetry.TrainStep{Time: e.now, Vehicle: e.Vehicles[id].ID, Steps: out.steps, Loss: out.loss})
		if e.obs != nil {
			e.obs.Observe(telemetry.MTrainWallNs, float64(out.wallNs))
		}
	}
}

// observeSched reports one tick's calendar work — due vehicles popped,
// wheel buckets examined — to the side channel; a quiet tick still reports
// its (zero) counts.
func (e *Engine) observeSched(due, buckets int) {
	if e.obs == nil {
		return
	}
	e.obs.Observe(telemetry.MSchedDueDequeued, float64(due))
	e.obs.Observe(telemetry.MSchedBucketsTouched, float64(buckets))
}

// observeChunk is the trace window's chunk callback: loads, evicts and
// prefetch issues with the retained chunk count after each, and the time a
// load blocked when it did.
func (e *Engine) observeChunk(op trace.ChunkOp) {
	switch op.Kind {
	case trace.OpLoad:
		e.obs.Observe(telemetry.MTraceLoads, 1)
		if op.WaitNs > 0 {
			e.obs.Observe(telemetry.MTraceFetchWaitNs, float64(op.WaitNs))
		}
	case trace.OpEvict:
		e.obs.Observe(telemetry.MTraceEvicts, 1)
	case trace.OpPrefetch:
		e.obs.Observe(telemetry.MTracePrefetches, 1)
	}
	e.obs.Observe(telemetry.MTraceResident, float64(op.Resident))
}

// probeLossMean evaluates every vehicle on the probe set (in parallel — the
// probe is read-only and each policy is private) and reduces the losses from
// the engine-held scratch in vehicle-index order, so the float sum is
// bit-identical at any worker count and steady-state probes allocate
// nothing.
func (e *Engine) probeLossMean() float64 {
	n := len(e.Vehicles)
	if cap(e.lossScratch) < n {
		e.lossScratch = make([]float64, n)
	}
	losses := e.lossScratch[:n]
	parallel.ForEach(e.workers(), n, e.probeFn)
	var sum float64
	for _, l := range losses {
		sum += l
	}
	return sum / float64(n)
}

// probeOne evaluates vehicle i on the probe set into the loss scratch.
func (e *Engine) probeOne(i int) {
	e.lossScratch[i] = e.Vehicles[i].Policy.Loss(e.Probe)
}

func (e *Engine) recordLoss() {
	if len(e.Probe) == 0 {
		return
	}
	loss := e.probeLossMean()
	e.LossCurve.Add(e.now, loss)
	if e.tel != nil {
		e.tel.Emit(telemetry.LossRecorded{Time: e.now, Loss: loss})
	}
}

// Distance returns the current distance between two vehicles.
func (e *Engine) Distance(a, b int) float64 {
	return e.Trace.Distance(a, b, e.now)
}

// Contact estimates the remaining contact duration between two vehicles by
// stepping the recorded future trace at its tick interval, up to
// ContactHorizon (Trace.ContactDuration): perfect foresight, which ROADMAP
// item 21 replaces with a route-based predictor.
func (e *Engine) Contact(a, b int) float64 {
	return e.Trace.ContactDuration(a, b, e.now, e.Radio.Params.MaxRangeMeters, e.Cfg.ContactHorizon)
}

// FleetReceiveStats aggregates the model-receive counters across vehicles.
func (e *Engine) FleetReceiveStats() metrics.ReceiveStats {
	var s metrics.ReceiveStats
	for _, v := range e.Vehicles {
		s.Merge(v.Recv)
	}
	return s
}

// SimulateTransfer plays a payload transfer from vehicle a to vehicle b
// starting now, bounded by deadline seconds, over the live trace geometry.
// The payload is reported to telemetry as a model transfer; use
// SimulateTransferPayload to label coreset payloads.
func (e *Engine) SimulateTransfer(bytes, a, b int, deadline float64) radio.TransferResult {
	return e.SimulateTransferPayload(telemetry.PayloadModel, bytes, a, b, deadline)
}

// SimulateTransferPayload is SimulateTransfer with an explicit telemetry
// payload label (telemetry.PayloadModel or telemetry.PayloadCoreset).
func (e *Engine) SimulateTransferPayload(payload string, bytes, a, b int, deadline float64) radio.TransferResult {
	start := e.now
	bw := math.Min(e.Vehicles[a].Bandwidth, e.Vehicles[b].Bandwidth)
	dist := func(elapsed float64) float64 { return e.Trace.Distance(a, b, start+elapsed) }
	// With bursts configured, layer the link's episode timeline over the
	// loss table and remember the strongest boost the transfer saw.
	var boost func(elapsed float64) float64
	var burstPER float64
	if e.faults != nil {
		if link := e.faults.LinkBoost(a, b); link != nil {
			boost = func(elapsed float64) float64 {
				p := link(start + elapsed)
				if p > burstPER {
					burstPER = p
				}
				return p
			}
		}
	}
	res := e.Radio.SimulateTransferPerturbed(bytes, dist, boost, bw, deadline, e.rng)
	if burstPER > 0 {
		e.Emit(telemetry.FaultInjected{Time: e.now, Fault: telemetry.FaultBurstLoss, A: a, B: b, Value: burstPER})
	}
	if e.tel != nil {
		e.tel.Emit(telemetry.Transfer{
			Time: e.now, From: a, To: b, Payload: payload,
			BytesRequested: bytes, BytesDelivered: res.BytesDelivered,
			Completed: res.Completed, Elapsed: res.Elapsed, Truncated: res.Truncated,
		})
	}
	return res
}

// RNG returns the engine's own random stream (pairing decisions etc.).
func (e *Engine) RNG() *simrand.Rand { return e.rng }

// ModelWireBytes returns the over-the-air size of one uncompressed model
// (the paper-scale S of the compression ratio φ = S/S_c).
func (e *Engine) ModelWireBytes() int { return paperModelBytes }

// FitWindowPsi returns the equal compression level at which two model
// payloads of modelBytes each fit a window of windowSeconds at minBWBps,
// capped at 1: EqualCompression's and the gossip baselines' ψ. A window,
// bandwidth or size that is not positive gives 0, which sends nothing.
func FitWindowPsi(windowSeconds, minBWBps float64, modelBytes int) float64 {
	if windowSeconds <= 0 || minBWBps <= 0 || modelBytes <= 0 {
		return 0
	}
	return math.Min(1, windowSeconds*minBWBps/8/float64(2*modelBytes))
}

// CompressedModelBytes returns the over-the-air size of a model compressed
// to level ψ.
func (e *Engine) CompressedModelBytes(psi float64) int {
	if psi <= 0 {
		return 0
	}
	if psi > 1 {
		psi = 1
	}
	return int(psi * paperModelBytes)
}

// CoresetWireBytes returns the over-the-air size of a coreset: frames × the
// paper's per-frame size.
func (e *Engine) CoresetWireBytes(frames int) int {
	return frames * paperFrameBytes
}

// CompressionScheme identifies a model-payload compression method.
type CompressionScheme int

// Compression schemes.
const (
	// SchemeTopK is top-k delta sparsification with index-value encoding
	// (the paper's default, [22][23]).
	SchemeTopK CompressionScheme = iota
	// SchemeQuantize is unbiased stochastic uniform quantization of the
	// delta, with the bit width chosen to meet the ψ byte budget.
	SchemeQuantize
)

// CompressReconstruct compresses a model to relative payload size ψ under
// the configured scheme and returns the receiver-side reconstruction. This
// is what every exchange path uses: the sender evaluates exactly what the
// receiver will materialize.
func (e *Engine) CompressReconstruct(flat []float64, psi float64) []float64 {
	if psi <= 0 {
		return nil
	}
	return e.reconstructPlan(make([]float64, len(e.initFlat)), e.fillPlan(0, flat), psi)
}

// CompressDelta top-k sparsifies a model's DELTA from the fleet's shared
// initialization at level ψ. Vehicles exchange sparsified deltas rather than
// raw parameters: every peer holds the same initialization (§II-A), so a
// receiver reconstructs the compressed model exactly, and dropping small
// delta coordinates degrades the model far more gracefully than zeroing raw
// weights [22].
func (e *Engine) CompressDelta(flat []float64, psi float64) *compress.Sparse {
	return e.fillPlan(0, flat).TopK(e.keepCount(psi))
}

// fillPlan loads one of the engine's two delta plans with a model's delta
// from the shared initialization — the one place flat − initFlat is
// computed. The plan is valid until the same side is filled again.
func (e *Engine) fillPlan(side int, flat []float64) *compress.DeltaPlan {
	p := &e.plans[side]
	p.Fill(flat, e.initFlat)
	return p
}

// keepCount is the number of delta coordinates the stand-in model keeps at
// byte-fraction ψ: ψ^compressionConcentration of them below ψ = 1.
func (e *Engine) keepCount(psi float64) int {
	keep := psi
	if psi > 0 && psi < 1 {
		keep = math.Pow(psi, compressionConcentration)
	}
	return int(keep * float64(len(e.initFlat)))
}

// reconstructPlan writes into dst what a receiver materializes from the
// planned model compressed to ψ > 0 under the configured scheme, and returns
// it. It is the one definition of a payload at ψ: the φ fit scores what the
// transfer ships. A nil dst is scratch, valid until the plan's next use:
// top-k cuts into the plan's own buffer, quantization into the vector it
// decodes. Quantization rounds with the engine's stream.
func (e *Engine) reconstructPlan(dst []float64, p *compress.DeltaPlan, psi float64) []float64 {
	if e.Cfg.CompressionScheme != SchemeQuantize {
		if dst == nil {
			return p.Reconstruct(e.keepCount(psi))
		}
		return p.ReconstructInto(dst, e.keepCount(psi))
	}
	bits := int(psi*32 + 0.5)
	if bits < 1 {
		bits = 1
	}
	if bits > compress.MaxQuantBits {
		bits = compress.MaxQuantBits
	}
	q, err := compress.Quantize(p.Delta(), bits, e.rng)
	if err != nil {
		return nil
	}
	delta := q.Dense()
	if dst == nil {
		dst = delta
	}
	for i, dv := range delta {
		dst[i] = e.initFlat[i] + dv
	}
	return dst
}
