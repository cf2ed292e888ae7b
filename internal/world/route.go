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
}

// NewRoute builds a route along the given node path. The path must contain
// at least two adjacent nodes.
func NewRoute(m *Map, nodes []NodeID) (*Route, error) {
	if len(nodes) < 2 {
		return nil, fmt.Errorf("world: route needs at least 2 nodes, got %d", len(nodes))
	}
	r := &Route{nodes: append([]NodeID(nil), nodes...)}
	lanes := make([]*geom.Polyline, 0, len(nodes)-1)
	for i := 0; i+1 < len(nodes); i++ {
		eid, err := m.EdgeBetween(nodes[i], nodes[i+1])
		if err != nil {
			return nil, err
		}
		e := m.EdgeByID(eid)
		r.edges = append(r.edges, eid)
		r.limits = append(r.limits, e.SpeedLimit)
		lanes = append(lanes, e.Lane)
	}

	// Assemble the drivable lane: each edge's straight section, cut back by
	// the fillet length at interior nodes, joined by quadratic Bézier
	// fillets so corners are smooth and physically drivable. Interior-node
	// arcs land on the fillet midpoints.
	var pts []geom.Point
	var interiorMarks []int // index into pts of each fillet midpoint
	for i, lane := range lanes {
		startCut, endCut := 0.0, 0.0
		if i > 0 {
			startCut = math.Min(cornerCut, lane.Length()/3)
		}
		if i+1 < len(lanes) {
			endCut = math.Min(cornerCut, lane.Length()/3)
		}
		// Straight section.
		for s := startCut; s <= lane.Length()-endCut; s += 2 {
			pts = append(pts, lane.At(s))
		}
		pts = append(pts, lane.At(lane.Length()-endCut))
		// Fillet into the next edge.
		if i+1 < len(lanes) {
			next := lanes[i+1]
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
					interiorMarks = append(interiorMarks, len(pts)-1)
				}
			}
		}
	}
	r.lane = geom.NewPolyline(pts)
	// Recover interior-node arcs by projecting the marked fillet midpoints.
	for _, mk := range interiorMarks {
		arc, _ := r.lane.Project(pts[mk])
		r.nodeArcs = append(r.nodeArcs, arc)
	}
	// Edge start arcs: project each lane's cut-back start point.
	for i, lane := range lanes {
		if i == 0 {
			r.edgeArcs = append(r.edgeArcs, 0)
			continue
		}
		startCut := math.Min(cornerCut, lane.Length()/3)
		arc, _ := r.lane.Project(lane.At(startCut))
		r.edgeArcs = append(r.edgeArcs, arc)
	}
	r.commands = classifyTurns(m, nodes)
	return r, nil
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

// Nodes returns the route's node sequence.
func (r *Route) Nodes() []NodeID { return r.nodes }

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
// parameterization is preserved (existing arc lengths remain valid).
func (r *Route) ExtendRandom(m *Map, extra float64, rng *simrand.Rand) error {
	tail, err := randomWalkNodes(m, r.nodes[len(r.nodes)-1], extra, rng)
	if err != nil {
		return err
	}
	// Drop tail's first node (it duplicates our last) and rebuild.
	joined := append(append([]NodeID(nil), r.nodes...), tail[1:]...)
	nr, err := NewRoute(m, joined)
	if err != nil {
		return err
	}
	*r = *nr
	return nil
}
