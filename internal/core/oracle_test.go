package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"lbchat/internal/coreset"
	"lbchat/internal/dataset"
	"lbchat/internal/geom"
	"lbchat/internal/radio"
	"lbchat/internal/simrand"
	"lbchat/internal/spatial"
	"lbchat/internal/telemetry"
	"lbchat/internal/trace"
)

// This file holds the engine's reference oracles: the pre-index O(N²) pair
// and contact loops, the pre-calendar O(N) due scan and the full Algorithm-1
// coreset rebuild, kept as functions that never run in production. Each is asserted against the live
// engine on every tick of a real run through tickHook.

// tickHook wraps a protocol with per-tick reference checks. OnTick runs
// after the tick's contact scan and local training, so the hook sees both
// phases' results for the current tick before the protocol chats.
type tickHook struct {
	Protocol
	setup func(e *Engine)
	tick  func(e *Engine, now float64)
}

func (h tickHook) Setup(e *Engine) error {
	if h.setup != nil {
		h.setup(e)
	}
	return h.Protocol.Setup(e)
}

func (h tickHook) OnTick(e *Engine, now float64) {
	h.tick(e, now)
	h.Protocol.OnTick(e, now)
}

// bruteCandidatePairs is the pre-index CandidatePairs: every free-vehicle
// pair in (A, B)-ascending order, confirmed by pairwise distance.
func bruteCandidatePairs(e *Engine, score func(a, b int) float64) []CandidatePair {
	var free []int
	for _, v := range e.Vehicles {
		if v.BusyUntil <= e.now && v.NextChatAt <= e.now && !e.VehicleAway(v.ID) {
			free = append(free, v.ID)
		}
	}
	var out []CandidatePair
	for ai := 0; ai < len(free); ai++ {
		for bi := ai + 1; bi < len(free); bi++ {
			a, b := free[ai], free[bi]
			if !(e.Distance(a, b) <= e.Radio.Params.MaxRangeMeters) { // NaN is in range of nothing
				continue
			}
			if last, ok := e.pairChatAt[spatial.Pair{A: a, B: b}]; ok && e.now-last < e.Cfg.PairCooldown {
				continue
			}
			if s := score(a, b); s > 0 {
				out = append(out, CandidatePair{A: a, B: b, Score: s})
			}
		}
	}
	return out
}

// bruteContactDiff is the pre-index scanContacts: it visits every pair,
// updates the caller-owned open set, and returns the tick's open/close
// events in (a, b)-ascending order.
func bruteContactDiff(e *Engine, open map[[2]int]float64) []telemetry.Event {
	var out []telemetry.Event
	for a := 0; a < len(e.Vehicles); a++ {
		for b := a + 1; b < len(e.Vehicles); b++ {
			key := [2]int{a, b}
			openedAt, isOpen := open[key]
			in := e.Distance(a, b) <= e.Radio.Params.MaxRangeMeters
			switch {
			case in && !isOpen:
				open[key] = e.now
				out = append(out, telemetry.ContactOpen{Time: e.now, A: a, B: b})
			case !in && isOpen:
				delete(open, key)
				out = append(out, telemetry.ContactClose{Time: e.now, A: a, B: b, Duration: e.now - openedAt})
			}
		}
	}
	return out
}

// bruteCloseContacts is the pre-index closeContacts: every still-open pair
// in pair-index order.
func bruteCloseContacts(e *Engine, open map[[2]int]float64) []telemetry.Event {
	var out []telemetry.Event
	for a := 0; a < len(e.Vehicles); a++ {
		for b := a + 1; b < len(e.Vehicles); b++ {
			if openedAt, ok := open[[2]int{a, b}]; ok {
				out = append(out, telemetry.ContactClose{Time: e.now, A: a, B: b, Duration: e.now - openedAt})
			}
		}
	}
	return out
}

// legacyDueScan is the pre-calendar due discovery as a pure function: the
// vehicles whose nextTrain (as it stood before this tick's trainTick) has
// come due and who are not departed, in ascending id order.
func legacyDueScan(e *Engine, nextTrain []float64) []int32 {
	var due []int32
	for _, v := range e.Vehicles {
		if nextTrain[v.ID] <= e.now && !e.VehicleAway(v.ID) {
			due = append(due, int32(v.ID))
		}
	}
	return due
}

// contactEvents filters a slice of events down to contact opens and closes.
func contactEvents(events []telemetry.Event) []telemetry.Event {
	var out []telemetry.Event
	for _, ev := range events {
		switch ev.(type) {
		case telemetry.ContactOpen, telemetry.ContactClose:
			out = append(out, ev)
		}
	}
	return out
}

// scanOnly is fleet-scan's protocol: pair up in-range vehicles by proximity
// and stamp their cooldowns, nothing else.
type scanOnly struct{}

func (scanOnly) Name() string        { return "scan-only" }
func (scanOnly) Setup(*Engine) error { return nil }

func (scanOnly) OnTick(e *Engine, now float64) {
	pairs := e.CandidatePairs(func(a, b int) float64 { return 1 / (1 + e.Distance(a, b)) })
	for _, p := range e.GreedyMatch(pairs) {
		e.MarkChatted(p.A, p.B, now+15)
	}
}

// teleportRows is a static scatter of 64 vehicles over 121 one-second rows
// in which three pairs come into range in ways a stale skin list would
// miss: vehicles 60 and 61 start beyond r + s apart and 61 creeps 15 m a
// tick, within range from tick 14, when only the drift summed since the
// list's row (210 m) calls for a rebuild; vehicle 0 jumps five skins away
// at tick 20 and back at 40; vehicles 62 and 63 start 750 m apart
// and each jump 150 m toward the other at tick 60 — each below the skin,
// together past it.
func teleportRows() [][]geom.Point {
	base := fleetRows(64, 1, 1)[0]
	rows := make([][]geom.Point, 121)
	for t := range rows {
		row := append([]geom.Point(nil), base...)
		if t >= 20 && t < 40 {
			row[0].X = math.Mod(row[0].X+5*skinMeters, 8*densityCell)
		}
		row[60] = geom.Pt(-5000, -5000)
		row[61] = geom.Pt(-5000+705-15*float64(t), -5000)
		row[62], row[63] = geom.Pt(0, -10000), geom.Pt(750, -10000)
		if t >= 60 {
			row[62].X, row[63].X = 150, 600
		}
		rows[t] = row
	}
	return rows
}

// boundaryRows puts pairs on the predicates' edges over ten one-second
// rows: vehicles 0 and 1 exactly r apart throughout, 2 and 3 one ulp
// beyond r, and 4 and 5 exactly r + s apart on the first row, after which
// 5 closes in by just under s (still out of range, on the same skin list),
// then to exactly r, and from row 6 leaves by one ulp.
func boundaryRows(r float64) [][]geom.Point {
	rows := make([][]geom.Point, 10)
	for t := range rows {
		x5 := 10000 + r + skinMeters
		switch {
		case t == 1:
			x5 = 10000 + r + 1e-4
		case t >= 6:
			x5 = math.Nextafter(10000+r, math.Inf(1))
		case t >= 2:
			x5 = 10000 + r
		}
		rows[t] = []geom.Point{
			geom.Pt(0, 0), geom.Pt(r, 0),
			geom.Pt(0, 5000), geom.Pt(math.Nextafter(r, math.Inf(1)), 5000),
			geom.Pt(10000, 0), geom.Pt(x5, 0),
		}
	}
	return rows
}

// nanRows is eight vehicles within 300 m of each other over 50 one-second
// rows, vehicle 7 cycling through NaN, finite, half-NaN, infinite and
// finite positions ten rows each, and vehicle 6 at (−Inf, −Inf) for rows
// 25–34.
func nanRows() [][]geom.Point {
	nan, inf := math.NaN(), math.Inf(1)
	seven := []geom.Point{geom.Pt(nan, nan), geom.Pt(100, 50), geom.Pt(nan, 50), geom.Pt(inf, 0), geom.Pt(150, 0)}
	rows := make([][]geom.Point, 50)
	for t := range rows {
		row := make([]geom.Point, 8)
		for i := range row {
			row[i] = geom.Pt(40*float64(i), 10*float64(i%3))
		}
		row[7] = seven[t/10]
		if t >= 25 && t < 35 {
			row[6] = geom.Pt(-inf, -inf)
		}
		rows[t] = row
	}
	return rows
}

// offsetRows is fleetRows with every coordinate shifted by off.
func offsetRows(n, ticks int, dt, off float64) [][]geom.Point {
	rows := fleetRows(n, ticks, dt)
	for _, row := range rows {
		for i := range row {
			row[i].X += off
			row[i].Y += off
		}
	}
	return rows
}

// TestPairScanMatchesBruteOracle asserts, on every tick of a run, that the
// contact events the engine emitted equal the brute pair-by-pair diff and
// that CandidatePairs equals the brute double loop — same pairs, same
// order, same scores — and that the end-of-run flush closes exactly what
// the oracle still holds open. The LbChat row is a small fleet on the world
// trace; the fleet rows are fleet-scan in miniature, where over ten
// thousand contacts open and close and over a thousand are still open at
// the flush. With a sink, CandidatePairs must reuse the contact scan's
// list; the row without one has no contact scan, so CandidatePairs must
// enumerate the tick's pairs itself. The rows after those try to break the
// skin list scanInRange filters: a jump past the skin, pairs exactly at r
// and at r + s, NaN and infinite positions, coordinates near 1e7 m, and
// CandidatePairs called at a time before the last scan (the rewound row
// checks that call against the oracle at the earlier time, every tick).
func TestPairScanMatchesBruteOracle(t *testing.T) {
	r := radio.NewModel(false).Params.MaxRangeMeters
	rowsEnv := func(rows [][]geom.Point, dt float64) func(*testing.T, telemetry.Sink) *Engine {
		return func(t *testing.T, sink telemetry.Sink) *Engine {
			return rowsEngine(t, trace.FromRows(dt, rows), sink)
		}
	}
	cases := []struct {
		name     string
		env      func(t *testing.T, sink telemetry.Sink) *Engine
		proto    Protocol
		noSink   bool
		minOpens int // contacts the run must open (and close) at least
		minFlush int // contacts the end-of-run flush must close at least
		dur      float64
		rewind   bool
	}{
		{"lbchat/5 vehicles", func(t *testing.T, sink telemetry.Sink) *Engine {
			eng, _ := tinyEnvWith(t, 5, true, func(c *Config) { c.Telemetry = sink })
			return eng
		}, NewLbChat(), false, 1, 0, 300, false},
		{"scan-only/256-vehicle fleet", func(t *testing.T, sink telemetry.Sink) *Engine {
			return fleetEngine(t, 256, 601, 0.5, sink)
		}, scanOnly{}, false, 5000, 1000, 300, false},
		{"scan-only/256-vehicle fleet, no sink", func(t *testing.T, _ telemetry.Sink) *Engine {
			return fleetEngine(t, 256, 601, 0.5, nil)
		}, scanOnly{}, true, 0, 0, 300, false},
		{"scan-only/teleports past the skin", rowsEnv(teleportRows(), 1), scanOnly{}, false, 4, 1, 120, false},
		{"scan-only/pairs at r and r + s", rowsEnv(boundaryRows(r), 1), scanOnly{}, false, 1, 1, 9, false},
		{"scan-only/NaN and infinite positions", rowsEnv(nanRows(), 1), scanOnly{}, false, 7, 20, 49, false},
		{"scan-only/coordinates near 1e7 m", rowsEnv(offsetRows(64, 601, 0.5, 1e7), 0.5), scanOnly{}, false, 500, 50, 300, false},
		{"scan-only/CandidatePairs rewound", rowsEnv(fleetRows(64, 601, 0.5), 0.5), scanOnly{}, false, 500, 50, 300, true},
	}
	score := func(a, b int) float64 { return 1 + float64(a) + 0.01*float64(b) }
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := telemetry.NewMemorySink()
			eng := tc.env(t, mem)
			open := map[[2]int]float64{}
			seen, opens, closes, pairs := 0, 0, 0, 0
			hook := tickHook{Protocol: tc.proto, tick: func(e *Engine, now float64) {
				// With a sink the contact scan has already listed this tick's
				// pairs; without one nothing has.
				if scanned := e.inRangeAt == now; scanned == tc.noSink {
					t.Fatalf("t=%g: in-range list scanned before CandidatePairs = %v, want %v", now, scanned, !tc.noSink)
				}
				if !tc.noSink {
					events := mem.Events()
					got, want := contactEvents(events[seen:]), bruteContactDiff(e, open)
					seen = len(events)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("t=%g: contact events %v, brute oracle %v", now, got, want)
					}
					for _, ev := range want {
						if _, ok := ev.(telemetry.ContactOpen); ok {
							opens++
						} else {
							closes++
						}
					}
				}
				gotPairs, wantPairs := e.CandidatePairs(score), bruteCandidatePairs(e, score)
				if !reflect.DeepEqual(gotPairs, wantPairs) {
					t.Fatalf("t=%g: CandidatePairs %v, brute oracle %v", now, gotPairs, wantPairs)
				}
				pairs += len(wantPairs)
				if tc.rewind {
					// 1–40 ticks back, so the skin is sometimes reused across
					// the jump and sometimes rebuilt for it.
					ticks := float64(1 + int(now/e.Cfg.TickSeconds)%40)
					e.now = math.Max(0, now-ticks*e.Cfg.TickSeconds)
					gotPairs, wantPairs = e.CandidatePairs(score), bruteCandidatePairs(e, score)
					if !reflect.DeepEqual(gotPairs, wantPairs) {
						t.Fatalf("t=%g rewound to %g: CandidatePairs %v, brute oracle %v", now, e.now, gotPairs, wantPairs)
					}
					e.now = now
				}
			}}
			if err := eng.Run(hook, tc.dur); err != nil {
				t.Fatal(err)
			}
			if opens < tc.minOpens || closes < tc.minOpens || pairs == 0 {
				t.Fatalf("run exercised %d opens, %d closes, %d candidate pairs; the oracle needs %d opens and closes and some pairs",
					opens, closes, pairs, tc.minOpens)
			}
			if tc.noSink {
				return
			}
			// The end-of-run flush closes what the oracle still holds open.
			tail := contactEvents(mem.Events()[seen:])
			want := bruteCloseContacts(eng, open)
			if !reflect.DeepEqual(tail, want) {
				t.Fatalf("end-of-run closes %v, brute oracle %v", tail, want)
			}
			if len(want) < tc.minFlush {
				t.Fatalf("%d contacts open at the end-of-run flush, the row needs %d", len(want), tc.minFlush)
			}
		})
	}
}

// TestSkinListIsReused reads spatial.skin_rebuilds off the oracle's
// 256-vehicle fleet: the skin list must be enumerated at least once and on
// fewer than half the ticks, or scanInRange is either not scanning or
// re-enumerating as often as it did before the skin. (At 0.5 s ticks and
// at most 20 m/s a vehicle, two vehicles close in by at most 20 m a tick,
// so the 200 m skin should last about ten ticks.)
func TestSkinListIsReused(t *testing.T) {
	sum := telemetry.NewSummary()
	const dt, dur = 0.5, 300
	eng := fleetEngine(t, 256, 601, dt, sum)
	if err := eng.Run(scanOnly{}, dur); err != nil {
		t.Fatal(err)
	}
	ticks := int64(dur / dt)
	if n := sum.Reg.Counter(telemetry.MSkinRebuilds); n <= 0 || 2*n >= ticks {
		t.Fatalf("%s = %d over %d ticks, want in (0, %d)", telemetry.MSkinRebuilds, n, ticks, ticks/2)
	}
}

// TestSkinCentredAhead runs a synthetic constant-velocity fleet — 64
// vehicles on straight lines at fixed speeds, the two fastest at v₁ = v₂ =
// 10 m/s — for T = 600 s of 0.5 s ticks. A skin found on the current row
// lasts until those two have moved s between them, so the uncentred count
// is ⌈T·(v₁+v₂)/s⌉ = 60 rebuilds; centring ahead must bring it to at most
// 0.6× that (the look-ahead settles near 19 ticks, each skin lasting ≈ 39),
// while every tick's in-range list still equals the brute double loop.
func TestSkinCentredAhead(t *testing.T) {
	const n, dt, dur, v1, v2 = 64, 0.5, 600.0, 10.0, 10.0
	rng := simrand.New(3)
	start, vel := make([]geom.Point, n), make([]geom.Point, n)
	for i := range start {
		start[i] = geom.Pt(rng.Uniform(0, 3000), rng.Uniform(0, 3000))
		speed := rng.Uniform(2, 8)
		switch i {
		case 0:
			speed = v1
		case 1:
			speed = v2
		}
		heading := rng.Uniform(-math.Pi, math.Pi)
		vel[i] = geom.Pt(speed*math.Cos(heading), speed*math.Sin(heading))
	}
	rows := make([][]geom.Point, int(dur/dt)+1)
	for k := range rows {
		rows[k] = make([]geom.Point, n)
		for i := range rows[k] {
			rows[k][i] = start[i].Add(vel[i].Scale(float64(k) * dt))
		}
	}
	sum := telemetry.NewSummary()
	eng := rowsEngine(t, trace.FromRows(dt, rows), sum)
	r := eng.Radio.Params.MaxRangeMeters
	inRange := 0
	hook := tickHook{Protocol: scanOnly{}, tick: func(e *Engine, now float64) {
		row := e.Trace.RowAt(now)
		var want []spatial.Pair
		for a := range row {
			for b := a + 1; b < len(row); b++ {
				if row[a].Dist(row[b]) <= r {
					want = append(want, spatial.Pair{A: a, B: b})
				}
			}
		}
		if e.inRangeAt != now || !slices.Equal(e.inRange, want) {
			t.Fatalf("t=%g: in-range list %v (listed at %g), brute %v", now, e.inRange, e.inRangeAt, want)
		}
		inRange += len(want)
	}}
	if err := eng.Run(hook, dur); err != nil {
		t.Fatal(err)
	}
	uncentred := int64(math.Ceil(dur * (v1 + v2) / skinMeters))
	got := sum.Reg.Counter(telemetry.MSkinRebuilds)
	if got <= 0 || 10*got > 6*uncentred || inRange == 0 {
		t.Fatalf("%d skin rebuilds (%d in-range pairs over the run), want in (0, %d] = 0.6 × the uncentred %d",
			got, inRange, 6*uncentred/10, uncentred)
	}
	t.Logf("%d skin rebuilds against %d uncentred; %d in-range pairs over the run", got, uncentred, inRange)
}

// TestScanContactsSteadyStateAllocations pins the open-contact list's
// point: once the buffers have grown, a tick's contact scan allocates
// nothing. The trace is static, so after the first tick every pair is a
// continuing contact and no event is emitted either.
func TestScanContactsSteadyStateAllocations(t *testing.T) {
	eng := benchEngine(t, 256)
	eng.tel = &countingSink{}
	eng.scanContacts()
	if len(eng.open) == 0 {
		t.Fatal("no contact opened on the first tick")
	}
	if allocs := testing.AllocsPerRun(20, eng.scanContacts); allocs != 0 {
		t.Fatalf("steady-state scanContacts allocated %v times per tick, want 0", allocs)
	}
}

// TestCancelClosesContactsInPairOrder cancels a run while several contact
// windows are open: the flush must close each exactly once, stamped with the
// stop time, in (a, b)-ascending order.
func TestCancelClosesContactsInPairOrder(t *testing.T) {
	mem := telemetry.NewMemorySink()
	eng, _ := tinyEnvWith(t, 5, true, func(c *Config) { c.Telemetry = mem })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	open := map[[2]int]float64{}
	seen := 0
	hook := tickHook{Protocol: NewLbChat(), tick: func(e *Engine, now float64) {
		bruteContactDiff(e, open)
		seen = len(mem.Events())
		if len(open) >= 2 {
			cancel()
		}
	}}
	if err := eng.RunContext(ctx, hook, 300); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled (never saw two open contacts?)", err)
	}
	// Chat events of the canceling tick follow the hook; only closes matter.
	tail := contactEvents(mem.Events()[seen:])
	want := bruteCloseContacts(eng, open)
	if len(want) < 2 {
		t.Fatalf("only %d contacts open at cancellation", len(want))
	}
	if !reflect.DeepEqual(tail, want) {
		t.Fatalf("cancellation closes %v, want %v", tail, want)
	}
	if len(eng.open) != 0 {
		t.Fatalf("%d contacts still tracked open after the flush", len(eng.open))
	}
}

// dueOracle returns a tickHook that asserts, every tick, that trainTick's
// calendar pop surfaced exactly legacyDueScan's vehicles in the same order
// and left every vehicle's schedule in the future. It reports how many due
// vehicles it checked and how many came due while departed.
func dueOracle(t *testing.T, p Protocol) (hook tickHook, dueSeen, awayDue *int) {
	t.Helper()
	dueSeen, awayDue = new(int), new(int)
	var nextTrain []float64
	snapshot := func(e *Engine) {
		nextTrain = nextTrain[:0]
		for _, v := range e.Vehicles {
			nextTrain = append(nextTrain, v.nextTrain)
		}
	}
	hook = tickHook{Protocol: p, setup: snapshot, tick: func(e *Engine, now float64) {
		want := legacyDueScan(e, nextTrain)
		if !slices.Equal(e.dueIDs, want) {
			t.Fatalf("t=%g: calendar surfaced due set %v, scan oracle %v", now, e.dueIDs, want)
		}
		*dueSeen += len(want)
		for _, v := range e.Vehicles {
			if nextTrain[v.ID] <= now && e.VehicleAway(v.ID) {
				*awayDue++
			}
			if v.nextTrain <= now {
				t.Fatalf("t=%g: vehicle %d still due at %g after trainTick", now, v.ID, v.nextTrain)
			}
		}
		snapshot(e)
	}}
	return hook, dueSeen, awayDue
}

// fullRebuildCoreset is the pre-tree EnsureCoreset refresh, the quality
// reference the partition tree's summaries are judged against: one full
// Algorithm-1 rebuild over the whole dataset. Layering scores every sample
// with the current model, so on large expanded datasets it layers a
// uniformly drawn subsample of LayeringSample items and scales the coreset's
// weights so they still represent the full dataset's total weight. It never
// touches v.Tree.
func fullRebuildCoreset(e *Engine, v *Vehicle) (*coreset.Coreset, error) {
	size := e.Cfg.CoresetSize
	if v.CoresetSizeOverride > 0 {
		size = v.CoresetSizeOverride
	}
	base := v.Data
	if limit := e.Cfg.LayeringSample; limit > 0 && base.Len() > limit {
		perm := v.rng.Perm(base.Len())[:limit]
		base = v.Data.Subset(perm)
	}
	losses := v.Policy.PerSampleLosses(base.Items())
	method := e.Cfg.CoresetMethod
	if method == 0 {
		method = coreset.MethodLayered
	}
	cs, err := coreset.BuildWith(method, base, losses, size, v.rng.Derive("coreset"))
	if err != nil {
		return nil, fmt.Errorf("core: building coreset for vehicle %d: %w", v.ID, err)
	}
	// Rescale so the coreset represents the FULL dataset's weight, not just
	// the layered subsample's.
	if subTotal := base.TotalWeight(); subTotal > 0 {
		scale := v.Data.TotalWeight() / subTotal
		if scale != 1 {
			scaled := dataset.New(cs.Len())
			for _, it := range cs.Items() {
				scaled.Add(it.Sample, it.Weight*scale)
			}
			cs = coreset.FromDataset(scaled)
		}
	}
	v.Core = cs
	v.CoreBuiltAt = e.now
	e.Emit(telemetry.CoresetRebuilt{Time: e.now, Vehicle: v.ID, Size: cs.Len()})
	return cs, nil
}
