package world

import (
	"fmt"
	"math"

	"lbchat/internal/dataset"
	"lbchat/internal/geom"
	"lbchat/internal/simrand"
)

// Command-window geometry: the navigation service announces a turn this far
// before the intersection and keeps it active until the corner is cleared,
// so the whole curved section carries the turn command (in training data and
// during online evaluation alike).
const (
	commandLead = 30.0
	commandTail = 12.0
)

// cornerCut is how far before/after an interior node the lane is cut back
// and replaced by a Bézier fillet, producing drivable corner geometry.
const cornerCut = 8.0

// Route is a drivable path through the road graph: an ordered node sequence,
// the concatenated lane polyline, and precomputed arc positions of the
// interior nodes together with their turn commands.
type Route struct {
	nodes    []NodeID
	edges    []EdgeID
	lane     *geom.Polyline
	nodeArcs []float64         // arc position of each interior node boundary
	commands []dataset.Command // command active approaching each interior node
	limits   []float64         // speed limit per edge
	edgeArcs []float64         // arc position where each edge begins
	// lastAt is the number of lane points before the last edge's section,
	// the points an extension keeps. reach is the last lane point the arcs
	// taken before that section read (ArcOf's segment + 1), or MaxInt when
	// one of them is Project's: an extension keeps those arcs only when
	// reach < lastAt.
	lastAt, reach int
}

// NewRoute builds a route along the given node path. The path must contain
// at least two adjacent nodes.
func NewRoute(m *Map, nodes []NodeID) (*Route, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("world: route needs at least 2 nodes, got %d", len(nodes))
	}
	edges, limits, err := edgesAlong(m, nodes)
	if err != nil {
		return nil, err
	}
	r := &Route{nodes: append([]NodeID(nil), nodes...), edges: edges, limits: limits}
	r.layLane(m, 0)
	r.commands = classifyTurns(m, nodes)
	return r, nil
}

// edgesAlong returns the edges joining consecutive nodes of a path and their
// speed limits.
func edgesAlong(m *Map, nodes []NodeID) ([]EdgeID, []float64, error) {
	edges := make([]EdgeID, 0, len(nodes)-1)
	limits := make([]float64, 0, len(nodes)-1)
	for i := 0; i+1 < len(nodes); i++ {
		eid, err := m.EdgeBetween(nodes[i], nodes[i+1])
		if err != nil {
			return nil, nil, err
		}
		edges = append(edges, eid)
		limits = append(limits, m.EdgeByID(eid).SpeedLimit)
	}
	return edges, limits, nil
}

// layLane lays the drivable lane of edges from.. and takes their arcs. from
// is 0, or the last edge of the lane being extended: its lastAt points
// before that edge's section are kept, with every arc taken before it.
//
// Each edge's straight section is cut back by the fillet length at interior
// nodes, and quadratic Bézier fillets join the sections, so corners are
// smooth and physically drivable. An interior node's arc is its fillet
// midpoint's and an edge's start arc its cut-back start's, each a lane
// vertex taken with ArcOf; its first exact hit lies at or before the vertex,
// which is what lets an extension keep the arcs before its last section.
func (r *Route) layLane(m *Map, from int) {
	var pts []geom.Point
	var marks, starts []int // indices into pts of fillet midpoints and edge starts
	last := len(r.edges) - 1
	lastFrom := 0 // index into pts where the last edge's section begins
	for i := from; i <= last; i++ {
		lane := m.EdgeByID(r.edges[i]).Lane
		if i == last {
			lastFrom = len(pts)
		}
		startCut, endCut := 0.0, 0.0
		if i > 0 {
			startCut = math.Min(cornerCut, lane.Length()/3)
			starts = append(starts, len(pts))
		}
		if i < last {
			endCut = math.Min(cornerCut, lane.Length()/3)
		}
		// Straight section.
		for s := startCut; s <= lane.Length()-endCut; s += 2 {
			pts = append(pts, lane.At(s))
		}
		pts = append(pts, lane.At(lane.Length()-endCut))
		// Fillet into the next edge.
		if i < last {
			next := m.EdgeByID(r.edges[i+1]).Lane
			nextCut := math.Min(cornerCut, next.Length()/3)
			p1 := lane.At(lane.Length() - endCut)
			p2 := next.At(nextCut)
			ctrl := geom.Lerp(lane.At(lane.Length()), next.At(0), 0.5)
			const filletSteps = 6
			for k := 1; k < filletSteps; k++ {
				t := float64(k) / filletSteps
				a := geom.Lerp(p1, ctrl, t)
				b := geom.Lerp(ctrl, p2, t)
				pts = append(pts, geom.Lerp(a, b, t))
				if k == filletSteps/2 {
					marks = append(marks, len(pts)-1)
				}
			}
		}
	}

	var b *geom.PolylineBuilder
	if from == 0 {
		b = geom.NewPolylineBuilder(len(pts))
		r.nodeArcs, r.edgeArcs, r.reach = nil, []float64{0}, 0
	} else {
		b = r.lane.Regrow(r.lastAt, len(pts))
		r.edgeArcs = r.edgeArcs[:from]
	}
	for i, p := range pts {
		if i == lastFrom {
			r.lastAt = b.Len()
		}
		b.Add(p)
	}
	r.lane = b.Polyline()
	arcOf := func(i int) float64 {
		arc, seg := r.lane.ArcOf(pts[i])
		if i < lastFrom {
			if seg < 0 {
				r.reach = math.MaxInt
			} else {
				r.reach = max(r.reach, seg+1)
			}
		}
		return arc
	}
	for _, i := range marks {
		r.nodeArcs = append(r.nodeArcs, arcOf(i))
	}
	for _, i := range starts {
		r.edgeArcs = append(r.edgeArcs, arcOf(i))
	}
}

// classifyTurns returns the command approaching each interior node of the
// path: Left/Right for turns sharper than 30°, Straight when passing through
// a real intersection (3+ outgoing roads), Follow when the road continues.
func classifyTurns(m *Map, nodes []NodeID) []dataset.Command {
	cmds := make([]dataset.Command, 0, len(nodes)-2)
	for i := 1; i+1 < len(nodes); i++ {
		hIn := m.NodePos(nodes[i]).Sub(m.NodePos(nodes[i-1])).Heading()
		hOut := m.NodePos(nodes[i+1]).Sub(m.NodePos(nodes[i])).Heading()
		delta := geom.WrapAngle(hOut - hIn)
		switch {
		case delta > math.Pi/6:
			cmds = append(cmds, dataset.CmdLeft)
		case delta < -math.Pi/6:
			cmds = append(cmds, dataset.CmdRight)
		default:
			// Going straight: announce "straight" only at real intersections
			// (where the driver has a choice); otherwise just follow the road.
			if len(m.Nodes[nodes[i]].Out) > 2 {
				cmds = append(cmds, dataset.CmdStraight)
			} else {
				cmds = append(cmds, dataset.CmdFollow)
			}
		}
	}
	return cmds
}

// Length returns the route length in meters.
func (r *Route) Length() float64 { return r.lane.Length() }

// PosAt returns the world position at arc length s.
func (r *Route) PosAt(s float64) geom.Point { return r.lane.At(s) }

// HeadingAt returns the lane tangent heading at arc length s.
func (r *Route) HeadingAt(s float64) float64 { return r.lane.HeadingAt(s) }

// SpeedLimitAt returns the speed limit of the edge containing arc length s.
func (r *Route) SpeedLimitAt(s float64) float64 {
	if len(r.limits) == 0 {
		return 0
	}
	idx := len(r.edgeArcs) - 1
	for i, start := range r.edgeArcs {
		if s < start {
			idx = i - 1
			break
		}
	}
	if idx < 0 {
		idx = 0
	}
	return r.limits[idx]
}

// CommandAt returns the active high-level command at arc length s: the
// nearby interior node's turn command when within its announcement window
// (commandLead before the corner through commandTail past it), Follow
// otherwise.
func (r *Route) CommandAt(s float64) dataset.Command {
	for i, arc := range r.nodeArcs {
		if s >= arc-commandLead && s <= arc+commandTail {
			return r.commands[i]
		}
		if s < arc-commandLead {
			break
		}
	}
	return dataset.CmdFollow
}

// NextInteriorNode returns the arc position of the first interior node at
// or after arc s within the given horizon, and whether one exists.
func (r *Route) NextInteriorNode(s, horizon float64) (float64, bool) {
	for _, arc := range r.nodeArcs {
		if arc >= s && arc-s <= horizon {
			return arc, true
		}
		if arc > s+horizon {
			break
		}
	}
	return 0, false
}

// InteriorNodeAt returns the NodeID of the interior node whose arc position
// equals arc (as returned by NextInteriorNode).
func (r *Route) InteriorNodeAt(arc float64) (NodeID, bool) {
	for i, a := range r.nodeArcs {
		if a == arc {
			return r.nodes[i+1], true
		}
	}
	return 0, false
}

// NumTurns returns how many interior nodes the route turns (left or right)
// at. Used to build the Straight / One Turn / Navigation evaluation suites.
func (r *Route) NumTurns() int {
	n := 0
	for _, c := range r.commands {
		if c == dataset.CmdLeft || c == dataset.CmdRight {
			n++
		}
	}
	return n
}

// RandomWalkRoute generates a roaming route of approximately the given
// length starting at node start, avoiding immediate U-turns when possible.
func RandomWalkRoute(m *Map, start NodeID, minLength float64, rng *simrand.Rand) (*Route, error) {
	nodes, err := randomWalkNodes(m, start, minLength, rng)
	if err != nil {
		return nil, err
	}
	return NewRoute(m, nodes)
}

// randomWalkNodes draws RandomWalkRoute's node path: at least two nodes,
// beginning at start, at least minLength meters of edges.
func randomWalkNodes(m *Map, start NodeID, minLength float64, rng *simrand.Rand) ([]NodeID, error) {
	nodes := []NodeID{start}
	cur := start
	prev := NodeID(-1)
	var length float64
	for length < minLength || len(nodes) < 2 {
		out := m.Nodes[cur].Out
		if len(out) == 0 {
			return nil, fmt.Errorf("world: node %d has no outgoing edges", cur)
		}
		candidates := make([]EdgeID, 0, len(out))
		for _, eid := range out {
			if m.Edges[eid].To != prev {
				candidates = append(candidates, eid)
			}
		}
		if len(candidates) == 0 {
			candidates = out // dead end: U-turn allowed
		}
		eid := candidates[rng.Intn(len(candidates))]
		e := m.EdgeByID(eid)
		nodes = append(nodes, e.To)
		length += e.Length()
		prev = cur
		cur = e.To
		if len(nodes) > 10_000 {
			return nil, fmt.Errorf("world: random walk failed to reach length %g", minLength)
		}
	}
	return nodes, nil
}

// ExtendRandom appends a random continuation of at least extra meters to the
// route, avoiding an immediate U-turn when possible. The route's arc
// parameterization is preserved (existing arc lengths remain valid), and so
// is everything else it holds: extension appends. The lane keeps its points before the old last edge's section, that edge
// gains its end cut and its fillet, and the tail is laid after it; the
// result is a new polyline sharing no storage with the old one. The arcs
// taken before the old last section are kept — each was read at or before
// its own vertex — unless one read past the kept points (reach), and then
// the whole lane is laid again.
func (r *Route) ExtendRandom(m *Map, extra float64, rng *simrand.Rand) error {
	tail, err := randomWalkNodes(m, r.nodes[len(r.nodes)-1], extra, rng)
	if err != nil {
		return err
	}
	edges, limits, err := edgesAlong(m, tail)
	if err != nil {
		return err
	}
	from := len(r.edges) - 1
	if r.reach >= r.lastAt {
		from = 0
	}
	junction := len(r.nodes) - 2 // the old last node's predecessor
	r.nodes = append(r.nodes, tail[1:]...)
	r.edges = append(r.edges, edges...)
	r.limits = append(r.limits, limits...)
	r.commands = append(r.commands, classifyTurns(m, r.nodes[junction:])...)
	r.layLane(m, from)
	return nil
}
