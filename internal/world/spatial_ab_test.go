package world

import (
	"math"
	"reflect"
	"testing"

	"lbchat/internal/bev"
	"lbchat/internal/dataset"
	"lbchat/internal/geom"
	"lbchat/internal/simrand"
)

// This file holds the world's reference oracles: the pre-index O(N) entity
// scans behind every proximity query, kept as pure functions that never run
// in production, and the tests that hold the indexed queries to them.

// seededWorld spawns a world on the default map from a fixed seed: two calls
// with the same population yield identical twins, so one can be driven
// through production code and the other through a reference oracle.
func seededWorld(t *testing.T, spawn SpawnConfig) *World {
	t.Helper()
	m, err := NewMap(DefaultConfig())
	if err != nil {
		t.Fatalf("NewMap: %v", err)
	}
	w, err := New(m, spawn, simrand.New(99))
	if err != nil {
		t.Fatalf("world.New: %v", err)
	}
	return w
}

// routedCars returns every routed car in index order (experts, then
// background).
func routedCars(w *World) []*Vehicle {
	return append(append([]*Vehicle(nil), w.Experts...), w.Background...)
}

// bruteAheadDistance is the pre-index aheadDistance: it transforms through
// geom.Frame, a Sincos per point, where production hoists the rotation out
// of the candidate loop.
func bruteAheadDistance(frame geom.Frame, p geom.Point, maxDist, corridor float64) float64 {
	local := frame.ToLocal(p)
	if local.X <= 0 || local.X > maxDist {
		return math.Inf(1)
	}
	if math.Abs(local.Y) > corridor {
		return math.Inf(1)
	}
	return local.X
}

// bruteVehicleAhead is the pre-index nearestVehicleAhead.
func bruteVehicleAhead(w *World, v *Vehicle) float64 {
	frame := v.Frame()
	best := math.Inf(1)
	consider := func(p geom.Point) {
		if d := bruteAheadDistance(frame, p, followGap+10, 3.0); d < best {
			best = d
		}
	}
	for _, o := range routedCars(w) {
		if o.ID != v.ID {
			consider(o.Pos())
		}
	}
	for _, a := range w.FreeAgents {
		consider(a.Pos)
	}
	return best
}

// brutePedestrianAhead is the pre-index nearestPedestrianAhead.
func brutePedestrianAhead(w *World, v *Vehicle) float64 {
	frame := v.Frame()
	best := math.Inf(1)
	for _, p := range w.Pedestrians {
		if d := bruteAheadDistance(frame, p.Pos, pedSlowGap+6, 2.5); d < best {
			best = d
		}
	}
	return best
}

// bruteIntersectionOccupied is the pre-index intersectionOccupied.
func bruteIntersectionOccupied(w *World, v *Vehicle, node geom.Point) bool {
	frame := v.Frame()
	occupied := func(p geom.Point) bool {
		return p.Dist(node) <= intersectionR && frame.ToLocal(p).X > 2
	}
	for _, o := range routedCars(w) {
		if o.ID != v.ID && occupied(o.Pos()) {
			return true
		}
	}
	for _, a := range w.FreeAgents {
		if occupied(a.Pos) {
			return true
		}
	}
	return false
}

// bruteAnyCarNear is the pre-index anyCarNear.
func bruteAnyCarNear(w *World, pos geom.Point, r float64) bool {
	for _, v := range routedCars(w) {
		if v.V > 0.5 && pos.Dist(v.Pos()) < r {
			return true
		}
	}
	for _, a := range w.FreeAgents {
		if a.V > 0.5 && pos.Dist(a.Pos) < r {
			return true
		}
	}
	return false
}

// bruteCollisionAt is the pre-index CollisionAt.
func bruteCollisionAt(w *World, pos geom.Point, excludeID int) bool {
	for _, v := range routedCars(w) {
		if v.ID != excludeID && pos.Dist(v.Pos()) < 2*vehicleRadius {
			return true
		}
	}
	for _, p := range w.Pedestrians {
		if pos.Dist(p.Pos) < vehicleRadius+pedRadius {
			return true
		}
	}
	return false
}

// checkNearSuperset holds a culled position list to its contract: it keeps
// every position of all that lies within r of center and adds nothing that
// is not in all (order is the index's, not the entity lists').
func checkNearSuperset(t *testing.T, label string, near, all []geom.Point, center geom.Point, r float64) {
	t.Helper()
	kept := map[geom.Point]int{}
	for _, p := range near {
		kept[p]++
	}
	for _, p := range all {
		switch {
		case kept[p] > 0:
			kept[p]--
		case p.Dist(center) <= r:
			t.Fatalf("%s: position %v within %g of %v was culled", label, p, r, center)
		}
	}
	for p, n := range kept {
		if n > 0 {
			t.Fatalf("%s: culled list holds %v, which the full scan does not", label, p)
		}
	}
}

// TestStepSpatialIndexBitIdentical steps a populated world and, after every
// Step, holds each indexed proximity query to its brute entity scan on the
// stepped state — for every car's driving cone, caution cone, next
// intersection and body, every walker's yield check, and the BEV culling
// lists. The in-step mixed old/new-position states the queries also run
// under are pinned by TestGoldenWorldTrajectory: a query that answered
// differently mid-step would move a trajectory.
func TestStepSpatialIndexBitIdentical(t *testing.T) {
	w := seededWorld(t, SpawnConfig{Experts: 6, BackgroundCars: 14, Pedestrians: 60})
	cull := bev.DefaultConfig()
	for tick := 0; tick < 400; tick++ {
		w.Step(0.5)
		for _, v := range routedCars(w) {
			if got, want := w.nearestVehicleAhead(v), bruteVehicleAhead(w, v); got != want {
				t.Fatalf("tick %d car %d: nearestVehicleAhead = %v, brute %v", tick, v.ID, got, want)
			}
			if got, want := w.nearestPedestrianAhead(v), brutePedestrianAhead(w, v); got != want {
				t.Fatalf("tick %d car %d: nearestPedestrianAhead = %v, brute %v", tick, v.ID, got, want)
			}
			if arc, ok := v.Route.NextInteriorNode(v.S, yieldLookahead); ok {
				node := v.Route.PosAt(arc)
				if got, want := w.intersectionOccupied(v, node), bruteIntersectionOccupied(w, v, node); got != want {
					t.Fatalf("tick %d car %d: intersectionOccupied = %v, brute %v", tick, v.ID, got, want)
				}
			}
			pos := v.Pos()
			if got, want := w.CollisionAt(pos, v.ID), bruteCollisionAt(w, pos, v.ID); got != want {
				t.Fatalf("tick %d car %d: CollisionAt = %v, brute %v", tick, v.ID, got, want)
			}
			checkNearSuperset(t, "VehiclePositionsNearSeenBy",
				w.VehiclePositionsNearSeenBy(pos, cull.VehicleCullRadius(), v.ID, nil),
				w.VehiclePositionsSeenBy(v.ID, nil), pos, cull.VehicleCullRadius())
			checkNearSuperset(t, "PedestrianPositionsNear",
				w.PedestrianPositionsNear(pos, cull.PedestrianCullRadius()),
				w.PedestrianPositions(), pos, cull.PedestrianCullRadius())
		}
		for _, p := range w.Pedestrians {
			if got, want := w.anyCarNear(p.Pos, yieldDistance), bruteAnyCarNear(w, p.Pos, yieldDistance); got != want {
				t.Fatalf("tick %d pedestrian %d: anyCarNear = %v, brute %v", tick, p.ID, got, want)
			}
		}
	}
}

// bruteCollectFrame is the pre-index CollectFrame: the same perturbed pose
// and targets, rasterized from the full entity lists instead of the
// index-culled ones.
func bruteCollectFrame(w *World, v *Vehicle, ras *bev.Rasterizer, numWaypoints int) dataset.Sample {
	base := v.Frame()
	lat := v.rng.Uniform(-maxLateralPerturb, maxLateralPerturb)
	dh := v.rng.Uniform(-maxHeadingPerturb, maxHeadingPerturb)
	right := geom.Pt(1, 0).Rotate(base.Heading - math.Pi/2)
	frame := geom.Frame{
		Origin:  base.Origin.Add(right.Scale(lat)),
		Heading: geom.WrapAngle(base.Heading + dh),
	}
	speed := v.desiredSpeed(w)
	targets := make([]float64, 0, 2*numWaypoints)
	for i := 1; i <= numWaypoints; i++ {
		wp := v.Route.PosAt(v.S + speed*FrameHorizonStep*float64(i))
		x, y := ras.Config().NormalizeWaypoint(frame.ToLocal(wp))
		targets = append(targets, x, y)
	}
	return dataset.Sample{
		BEV:     ras.Rasterize(frame, w.VehiclePositionsSeenBy(v.ID, nil), w.PedestrianPositions()),
		Command: v.Command(),
		Speed:   geom.Clamp(v.V/SpeedNorm, 0, 1),
		NavDist: NavDistAt(v.Route, v.S),
		RedDist: RedDistInput(w.Map, v.Route, v.S, w.Time),
		Targets: targets,
	}
}

// TestCollectDatasetSpatialIndexBitIdentical drives the full collection
// pipeline on one world and the brute full-scan collection on its twin:
// index-culled BEV rasterization must yield byte-identical samples.
func TestCollectDatasetSpatialIndexBitIdentical(t *testing.T) {
	spawn := SpawnConfig{Experts: 4, BackgroundCars: 10, Pedestrians: 40}
	wi, wb := seededWorld(t, spawn), seededWorld(t, spawn)
	ras := bev.NewRasterizer(bev.DefaultConfig(), wi.Map)
	const ticks = 120
	di := CollectDataset(wi, ras, 4, ticks, 0.5)
	for tick := 0; tick < ticks; tick++ {
		wb.Step(0.5)
		for v, expert := range wb.Experts {
			got, want := di[v].Items()[tick].Sample, bruteCollectFrame(wb, expert, ras, 4)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("tick %d vehicle %d: collected sample differs from the full-scan reference:\n%+v\n%+v",
					tick, v, got, want)
			}
		}
	}
}

// checkIndexedPositions fails unless every indexed point is its entity's
// current position.
func checkIndexedPositions(t *testing.T, w *World, when string) {
	t.Helper()
	if got, want := len(w.idxVehicles), len(w.Experts)+len(w.Background); got != want || w.vehIndex.Len() != want {
		t.Fatalf("%s: vehicle index holds %d/%d cars, world has %d", when, got, w.vehIndex.Len(), want)
	}
	for i, v := range w.idxVehicles {
		if got, want := w.vehIndex.At(i), v.Pos(); got != want {
			t.Fatalf("%s: car %d indexed at %v, is at %v", when, v.ID, got, want)
		}
	}
	if got, want := w.pedIndex.Len(), len(w.Pedestrians); got != want {
		t.Fatalf("%s: pedestrian index holds %d walkers, world has %d", when, got, want)
	}
	for i, p := range w.Pedestrians {
		if got := w.pedIndex.At(i); got != p.Pos {
			t.Fatalf("%s: pedestrian %d indexed at %v, is at %v", when, p.ID, got, p.Pos)
		}
	}
}

// queryAnswers evaluates the five indexed query kinds for every car and
// walker of w, in a fixed order.
func queryAnswers(w *World) []float64 {
	flag := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	var out []float64
	for _, v := range routedCars(w) {
		out = append(out, w.nearestVehicleAhead(v), w.nearestPedestrianAhead(v))
		if arc, ok := v.Route.NextInteriorNode(v.S, yieldLookahead); ok {
			out = append(out, flag(w.intersectionOccupied(v, v.Route.PosAt(arc))))
		}
		out = append(out, flag(w.CollisionAt(v.Pos(), v.ID)))
	}
	for _, p := range w.Pedestrians {
		out = append(out, flag(w.anyCarNear(p.Pos, yieldDistance)))
	}
	return out
}

// TestStepKeepsIndexCurrent pins what lets Step skip its rebuild: after
// every step each indexed point is its entity's position, and the indices
// Step has only ever updated answer all five query kinds exactly like
// freshly rebuilt ones.
func TestStepKeepsIndexCurrent(t *testing.T) {
	w := seededWorld(t, SpawnConfig{Experts: 6, BackgroundCars: 14, Pedestrians: 60})
	for tick := 0; tick < 300; tick++ {
		w.Step(0.5)
		checkIndexedPositions(t, w, "after step")
		kept := queryAnswers(w)
		keptVeh, keptPed := w.vehIndex, w.pedIndex
		w.vehIndex, w.pedIndex = nil, nil
		w.rebuildIndexes() // fresh indices over the same positions
		rebuilt := queryAnswers(w)
		w.vehIndex, w.pedIndex = keptVeh, keptPed
		if !reflect.DeepEqual(kept, rebuilt) {
			t.Fatalf("tick %d: kept-current indices answer differently from rebuilt ones", tick)
		}
	}
}

// TestWorldQueriesAfterExternalTeleport pins the InvalidateIndex contract:
// positions mutated outside Step must be visible to queries after an
// invalidation, matching the brute scans — and to a Step taken after it,
// which rebuilds instead of trusting the indices it left current.
func TestWorldQueriesAfterExternalTeleport(t *testing.T) {
	spawn := SpawnConfig{Experts: 4, BackgroundCars: 10, Pedestrians: 20}
	teleport := func(w *World) {
		for _, bg := range w.Background {
			bg.S = math.Min(bg.S+60, bg.Route.Length())
		}
		w.InvalidateIndex()
	}
	w := seededWorld(t, spawn)
	w.Step(0.5) // build + use the index once
	check := func(when string) {
		for _, v := range routedCars(w) {
			probe := v.Pos()
			if got, want := w.CollisionAt(probe, v.ID), bruteCollisionAt(w, probe, v.ID); got != want {
				t.Fatalf("CollisionAt(car %d) %s: index %v, brute %v", v.ID, when, got, want)
			}
			if got, want := w.nearestVehicleAhead(v), bruteVehicleAhead(w, v); got != want {
				t.Fatalf("nearestVehicleAhead(car %d) %s: index %v, brute %v", v.ID, when, got, want)
			}
			for r := 1.0; r <= 4096; r *= 4 {
				if got, want := w.anyCarNear(probe, r), bruteAnyCarNear(w, probe, r); got != want {
					t.Fatalf("anyCarNear(car %d, r=%g) %s: index %v, brute %v", v.ID, r, when, got, want)
				}
			}
		}
	}
	teleport(w)
	check("after teleport")
	// Teleport again and step with no query in between: Step itself must
	// honor the invalidation. A twin whose indices a query has already
	// rebuilt shows what the step should do; were Step to trust the indices
	// it left current, its in-step queries would see the pre-teleport
	// positions and the twins would part.
	twin := seededWorld(t, spawn)
	twin.Step(0.5)
	teleport(twin)
	for round := 0; round < 20; round++ {
		teleport(w)
		teleport(twin)
		twin.anyCarNear(geom.Pt(0, 0), 1) // rebuilds the twin's indices
		w.Step(0.5)
		twin.Step(0.5)
		checkIndexedPositions(t, w, "after teleport + Step")
		for i, v := range routedCars(w) {
			if o := routedCars(twin)[i]; v.S != o.S || v.V != o.V {
				t.Fatalf("round %d car %d: (S, V) = (%v, %v) stepping straight after the teleport, (%v, %v) with the indices rebuilt first",
					round, v.ID, v.S, v.V, o.S, o.V)
			}
		}
		for i, p := range w.Pedestrians {
			if o := twin.Pedestrians[i]; p.Pos != o.Pos {
				t.Fatalf("round %d pedestrian %d: at %v stepping straight after the teleport, %v with the indices rebuilt first",
					round, p.ID, p.Pos, o.Pos)
			}
		}
	}
	check("after teleport + Step")
}
