package world

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"lbchat/internal/geom"
	"lbchat/internal/simrand"
)

// spurMap is the default map with dead ends added: spurs of 60, 10 and 3 m,
// where a random walk must U-turn, and a micro spur of two edges a few
// 1e-13 m long, whose fillet points NewPolyline collapses so that some of
// their arcs are Project's fallback rather than an exact hit.
func spurMap(t testing.TB) *Map {
	t.Helper()
	m, err := NewMap(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	for i, off := range []geom.Point{geom.Pt(0, -60), geom.Pt(-10, 0), geom.Pt(3, 0)} {
		from := NodeID(i * 6) // grid corners and inner nodes
		m.addRoad(from, m.addNode(m.NodePos(from).Add(off)), cfg, cfg.TownSpeed)
	}
	base := NodeID(12)
	s1 := m.addNode(m.NodePos(base).Add(geom.Pt(3e-13, 2e-13)))
	s2 := m.addNode(m.NodePos(base).Add(geom.Pt(6e-13, 4e-13)))
	m.addRoad(base, s1, cfg, cfg.TownSpeed)
	m.addRoad(s1, s2, cfg, cfg.TownSpeed)
	return m
}

// rebuildExtend is ExtendRandom as a whole-route rebuild: the same random
// tail, then NewRoute over the joined path. It is the oracle the appending
// ExtendRandom must reproduce field for field.
func rebuildExtend(m *Map, r *Route, extra float64, rng *simrand.Rand) (*Route, error) {
	tail, err := randomWalkNodes(m, r.nodes[len(r.nodes)-1], extra, rng)
	if err != nil {
		return nil, err
	}
	return NewRoute(m, append(append([]NodeID(nil), r.nodes...), tail[1:]...))
}

// diffFloats names the first index where a and b differ in bits, or "".
func diffFloats(name string, a, b []float64) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: %d values, want %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Sprintf("%s[%d] = %v, want %v", name, i, a[i], b[i])
		}
	}
	return ""
}

// diffLanes compares two lanes point by point in bits and whole by
// reflect.DeepEqual, which reaches the arc lengths and ArcOf's block bounds
// (arc lengths are sums of distances from +0, so equal values are equal
// bits).
func diffLanes(name string, a, b *geom.Polyline) string {
	ap, bp := a.Points(), b.Points()
	if len(ap) != len(bp) {
		return fmt.Sprintf("%s: %d points, want %d", name, len(ap), len(bp))
	}
	for i := range ap {
		if math.Float64bits(ap[i].X) != math.Float64bits(bp[i].X) || math.Float64bits(ap[i].Y) != math.Float64bits(bp[i].Y) {
			return fmt.Sprintf("%s: point %d = %v, want %v", name, i, ap[i], bp[i])
		}
	}
	if !reflect.DeepEqual(a, b) {
		return name + ": arc lengths or block bounds differ"
	}
	return ""
}

// diffSlices names the first index where a and b differ, or "".
func diffSlices[T comparable](name string, a, b []T) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: %d values, want %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("%s[%d] = %v, want %v", name, i, a[i], b[i])
		}
	}
	return ""
}

// diffRoutes compares got with want field by field, lane bits included.
func diffRoutes(got, want *Route) string {
	for _, d := range []string{
		diffSlices("nodes", got.nodes, want.nodes),
		diffSlices("edges", got.edges, want.edges),
		diffFloats("limits", got.limits, want.limits),
		diffSlices("commands", got.commands, want.commands),
		diffLanes("lane", got.lane, want.lane),
		diffFloats("nodeArcs", got.nodeArcs, want.nodeArcs),
		diffFloats("edgeArcs", got.edgeArcs, want.edgeArcs),
		diffSlices("lastAt, reach", []int{got.lastAt, got.reach}, []int{want.lastAt, want.reach}),
	} {
		if d != "" {
			return d
		}
	}
	return ""
}

// TestExtendRandomMatchesRebuild grows 500 seeded routes on spurMap by 1–20
// extensions each and compares every extended route with NewRoute over its
// joined path, field by field and bit for bit; the lane each extension
// replaces must be unchanged after it. Both of ExtendRandom's paths are
// taken: the append, and the whole-lane relay after an arc that read past
// the kept points (the micro spur's collapsed fillets).
func TestExtendRandomMatchesRebuild(t *testing.T) {
	m := spurMap(t)
	var appended, relaid, uTurns int
	for chain := 0; chain < 500; chain++ {
		rng := simrand.New(uint64(chain))
		r, err := RandomWalkRoute(m, NodeID(rng.Intn(len(m.Nodes))), rng.Uniform(1, 300), rng)
		if err != nil {
			t.Fatal(err)
		}
		for ext := 1 + rng.Intn(20); ext > 0; ext-- {
			extra := rng.Uniform(1, 300)
			seed := uint64(rng.Intn(1 << 30))
			want, err := rebuildExtend(m, r, extra, simrand.New(seed))
			if err != nil {
				t.Fatal(err)
			}
			oldLane := r.lane
			snap := geom.NewPolyline(oldLane.Points())
			if d := diffLanes("rebuilt old lane", snap, oldLane); d != "" {
				t.Fatal(d)
			}
			if r.reach < r.lastAt {
				appended++
			} else {
				relaid++
			}
			if err := r.ExtendRandom(m, extra, simrand.New(seed)); err != nil {
				t.Fatal(err)
			}
			if d := diffRoutes(r, want); d != "" {
				t.Fatalf("chain %d, %d extensions left: %s", chain, ext, d)
			}
			if r.lane == oldLane {
				t.Fatalf("chain %d: the extended route kept its old lane", chain)
			}
			if d := diffLanes("old lane", oldLane, snap); d != "" {
				t.Fatalf("chain %d: extension wrote to the old lane: %s", chain, d)
			}
		}
		for i := 2; i < len(r.nodes); i++ {
			if r.nodes[i] == r.nodes[i-2] {
				uTurns++
			}
		}
	}
	if appended == 0 || relaid == 0 || uTurns == 0 {
		t.Fatalf("chains took %d appends, %d relays, %d U-turns: want each path", appended, relaid, uTurns)
	}
	t.Logf("%d appends, %d relays, %d U-turns", appended, relaid, uTurns)
}

// clone copies r's slices, which ExtendRandom may append to in place; the
// lane it never writes is shared.
func (r *Route) clone() *Route {
	c := *r
	c.nodes, c.edges, c.limits = slices.Clone(r.nodes), slices.Clone(r.edges), slices.Clone(r.limits)
	c.commands, c.nodeArcs, c.edgeArcs = slices.Clone(r.commands), slices.Clone(r.nodeArcs), slices.Clone(r.edgeArcs)
	return &c
}

// BenchmarkExtendRandom times one ExtendRandom (the vehicles' 600 m roam)
// of a route already about 1, 5 or 20 km long: appending costs the tail and
// a copy of the kept lane, where a whole-route rebuild grew with the route.
func BenchmarkExtendRandom(b *testing.B) {
	m, err := NewMap(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, km := range []float64{1, 5, 20} {
		b.Run(fmt.Sprintf("km=%g", km), func(b *testing.B) {
			base, err := RandomWalkRoute(m, 0, km*1000, simrand.New(1))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r := base.clone()
				rng := simrand.New(2)
				b.StartTimer()
				if err := r.ExtendRandom(m, 600, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
