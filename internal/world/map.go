package world

import (
	"fmt"
	"math"

	"lbchat/internal/geom"
)

// NodeID identifies a map node (intersection or road endpoint).
type NodeID int

// EdgeID identifies a directed road edge.
type EdgeID int

// Node is a junction in the road graph.
type Node struct {
	ID  NodeID
	Pos geom.Point
	// Out lists outgoing edges.
	Out []EdgeID
}

// Edge is a directed road segment with its driving-lane centerline (offset
// to the right-hand side of the road axis).
type Edge struct {
	ID         EdgeID
	From, To   NodeID
	Lane       *geom.Polyline
	SpeedLimit float64 // m/s
}

// Length returns the lane length in meters.
func (e *Edge) Length() float64 { return e.Lane.Length() }

// Map is the immutable road network. It also precomputes a drivable-road
// occupancy bitmap used by BEV rasterization and off-road detection.
type Map struct {
	Nodes []Node
	Edges []Edge

	bitmap     []bool
	bmMinX     float64
	bmMinY     float64
	bmCols     int
	bmRows     int
	bmCellSize float64

	width, height float64
}

// Config parameterizes map generation.
type Config struct {
	// GridN is the town grid dimension (GridN × GridN intersections).
	GridN int
	// GridSpacing is the distance between adjacent town intersections (m).
	GridSpacing float64
	// GridOffset shifts the town grid away from the map origin (m).
	GridOffset float64
	// Rural adds the country-road loop east and north of the town.
	Rural bool
	// LaneOffset is the lateral offset of the driving lane from the road
	// axis (right-hand traffic).
	LaneOffset float64
	// RoadHalfWidth is the half-width of the drivable surface (m).
	RoadHalfWidth float64
	// TownSpeed and RuralSpeed are the speed limits (m/s).
	TownSpeed  float64
	RuralSpeed float64
	// BitmapCell is the road-bitmap resolution (m).
	BitmapCell float64
}

// DefaultConfig is the ~1 km × 1 km town-plus-rural map used throughout the
// experiments, mirroring the paper's "largest built-in map ... about 1km×1km,
// including both town and rural areas".
func DefaultConfig() Config {
	return Config{
		GridN:         5,
		GridSpacing:   150,
		GridOffset:    50,
		Rural:         true,
		LaneOffset:    2.0,
		RoadHalfWidth: 6.0,
		TownSpeed:     9,
		RuralSpeed:    14,
		BitmapCell:    1.0,
	}
}

// NewMap generates a road network from the config.
func NewMap(cfg Config) (*Map, error) {
	if cfg.GridN < 2 {
		return nil, fmt.Errorf("world: grid dimension %d too small", cfg.GridN)
	}
	if cfg.GridSpacing <= 0 || cfg.BitmapCell <= 0 {
		return nil, fmt.Errorf("world: non-positive spacing %g or bitmap cell %g", cfg.GridSpacing, cfg.BitmapCell)
	}
	m := &Map{}

	// Town grid nodes.
	gridIdx := make(map[[2]int]NodeID, cfg.GridN*cfg.GridN)
	for i := 0; i < cfg.GridN; i++ {
		for j := 0; j < cfg.GridN; j++ {
			id := NodeID(len(m.Nodes))
			gridIdx[[2]int{i, j}] = id
			m.Nodes = append(m.Nodes, Node{
				ID:  id,
				Pos: geom.Pt(cfg.GridOffset+float64(i)*cfg.GridSpacing, cfg.GridOffset+float64(j)*cfg.GridSpacing),
			})
		}
	}
	// Town grid edges (bidirectional).
	for i := 0; i < cfg.GridN; i++ {
		for j := 0; j < cfg.GridN; j++ {
			if i+1 < cfg.GridN {
				m.addRoad(gridIdx[[2]int{i, j}], gridIdx[[2]int{i + 1, j}], cfg, cfg.TownSpeed)
			}
			if j+1 < cfg.GridN {
				m.addRoad(gridIdx[[2]int{i, j}], gridIdx[[2]int{i, j + 1}], cfg, cfg.TownSpeed)
			}
		}
	}

	if cfg.Rural {
		townMax := cfg.GridOffset + float64(cfg.GridN-1)*cfg.GridSpacing
		ruralX := townMax + 300
		ruralY := townMax + 300
		mid := cfg.GridN / 2
		// Country loop east and north of town, attached at three town nodes.
		a := m.addNode(geom.Pt(ruralX, cfg.GridOffset))
		b := m.addNode(geom.Pt(ruralX, townMax/2+cfg.GridOffset))
		c := m.addNode(geom.Pt(ruralX, ruralY))
		d := m.addNode(geom.Pt(townMax/2+cfg.GridOffset, ruralY))
		e := m.addNode(geom.Pt(cfg.GridOffset, ruralY))
		m.addRoad(gridIdx[[2]int{cfg.GridN - 1, 0}], a, cfg, cfg.RuralSpeed)
		m.addRoad(a, b, cfg, cfg.RuralSpeed)
		m.addRoad(gridIdx[[2]int{cfg.GridN - 1, mid}], b, cfg, cfg.RuralSpeed)
		m.addRoad(b, c, cfg, cfg.RuralSpeed)
		m.addRoad(c, d, cfg, cfg.RuralSpeed)
		m.addRoad(d, gridIdx[[2]int{mid, cfg.GridN - 1}], cfg, cfg.RuralSpeed)
		m.addRoad(d, e, cfg, cfg.RuralSpeed)
		m.addRoad(e, gridIdx[[2]int{0, cfg.GridN - 1}], cfg, cfg.RuralSpeed)
	}

	m.buildBitmap(cfg)
	return m, nil
}

func (m *Map) addNode(p geom.Point) NodeID {
	id := NodeID(len(m.Nodes))
	m.Nodes = append(m.Nodes, Node{ID: id, Pos: p})
	return id
}

// addRoad adds a bidirectional road between a and b as two directed edges,
// each with its lane offset to the right of travel.
func (m *Map) addRoad(a, b NodeID, cfg Config, speed float64) {
	m.addDirected(a, b, cfg, speed)
	m.addDirected(b, a, cfg, speed)
}

func (m *Map) addDirected(from, to NodeID, cfg Config, speed float64) {
	pa, pb := m.Nodes[from].Pos, m.Nodes[to].Pos
	dir := pb.Sub(pa).Unit()
	right := geom.Pt(dir.Y, -dir.X).Scale(cfg.LaneOffset)
	lane := geom.NewPolyline([]geom.Point{pa.Add(right), pb.Add(right)})
	id := EdgeID(len(m.Edges))
	m.Edges = append(m.Edges, Edge{ID: id, From: from, To: to, Lane: lane, SpeedLimit: speed})
	m.Nodes[from].Out = append(m.Nodes[from].Out, id)
}

func (m *Map) buildBitmap(cfg Config) {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, n := range m.Nodes {
		minX = math.Min(minX, n.Pos.X)
		minY = math.Min(minY, n.Pos.Y)
		maxX = math.Max(maxX, n.Pos.X)
		maxY = math.Max(maxY, n.Pos.Y)
	}
	margin := cfg.RoadHalfWidth + 5
	minX -= margin
	minY -= margin
	maxX += margin
	maxY += margin
	m.bmMinX, m.bmMinY = minX, minY
	m.bmCellSize = cfg.BitmapCell
	m.bmCols = int(math.Ceil((maxX-minX)/cfg.BitmapCell)) + 1
	m.bmRows = int(math.Ceil((maxY-minY)/cfg.BitmapCell)) + 1
	m.width, m.height = maxX-minX, maxY-minY
	m.bitmap = make([]bool, m.bmCols*m.bmRows)

	halfW := cfg.RoadHalfWidth
	rad := int(math.Ceil(halfW/cfg.BitmapCell)) + 1
	// Every edge pair shares a road axis; painting both directions is
	// harmless (idempotent) and keeps the code simple.
	for _, e := range m.Edges {
		axis := geom.Segment{A: m.Nodes[e.From].Pos, B: m.Nodes[e.To].Pos}
		length := axis.Length()
		steps := int(length/cfg.BitmapCell) + 1
		for s := 0; s <= steps; s++ {
			p := geom.Lerp(axis.A, axis.B, float64(s)/float64(steps))
			ci := int((p.X - minX) / cfg.BitmapCell)
			ri := int((p.Y - minY) / cfg.BitmapCell)
			for dr := -rad; dr <= rad; dr++ {
				for dc := -rad; dc <= rad; dc++ {
					r, c := ri+dr, ci+dc
					if r < 0 || r >= m.bmRows || c < 0 || c >= m.bmCols {
						continue
					}
					center := geom.Pt(minX+(float64(c)+0.5)*cfg.BitmapCell, minY+(float64(r)+0.5)*cfg.BitmapCell)
					if axis.DistToPoint(center) <= halfW {
						m.bitmap[r*m.bmCols+c] = true
					}
				}
			}
		}
	}
}

// IsRoad reports whether p lies on drivable road surface. It implements
// bev.RoadSampler.
func (m *Map) IsRoad(p geom.Point) bool {
	c := int((p.X - m.bmMinX) / m.bmCellSize)
	r := int((p.Y - m.bmMinY) / m.bmCellSize)
	if r < 0 || r >= m.bmRows || c < 0 || c >= m.bmCols {
		return false
	}
	return m.bitmap[r*m.bmCols+c]
}

// Bounds returns the map extent (width, height) in meters.
func (m *Map) Bounds() (w, h float64) { return m.width, m.height }

// NodePos returns the position of node id.
func (m *Map) NodePos(id NodeID) geom.Point { return m.Nodes[id].Pos }

// Edge lookups panic on out-of-range IDs, which always indicates a bug in
// the caller rather than a runtime condition.

// EdgeByID returns the edge with the given ID.
func (m *Map) EdgeByID(id EdgeID) *Edge { return &m.Edges[id] }

// ShortestPath returns the node sequence of the minimum-length path from src
// to dst using Dijkstra's algorithm, or an error when dst is unreachable.
func (m *Map) ShortestPath(src, dst NodeID) ([]NodeID, error) {
	const inf = math.MaxFloat64
	dist := make([]float64, len(m.Nodes))
	prev := make([]NodeID, len(m.Nodes))
	done := make([]bool, len(m.Nodes))
	for i := range dist {
		dist[i] = inf
		prev[i] = -1
	}
	dist[src] = 0
	for {
		// Linear scan: the graph has tens of nodes, a heap is not worth it.
		best := NodeID(-1)
		bestD := inf
		for i, d := range dist {
			if !done[i] && d < bestD {
				best = NodeID(i)
				bestD = d
			}
		}
		if best == -1 {
			break
		}
		if best == dst {
			break
		}
		done[best] = true
		for _, eid := range m.Nodes[best].Out {
			e := &m.Edges[eid]
			if nd := bestD + e.Length(); nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = best
			}
		}
	}
	if dist[dst] == inf {
		return nil, fmt.Errorf("world: node %d unreachable from %d", dst, src)
	}
	var path []NodeID
	for at := dst; at != -1; at = prev[at] {
		path = append(path, at)
		if at == src {
			break
		}
	}
	// Reverse in place.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	if path[0] != src {
		return nil, fmt.Errorf("world: path reconstruction failed from %d to %d", src, dst)
	}
	return path, nil
}

// EdgeBetween returns the directed edge from a to b, or an error when the
// nodes are not adjacent.
func (m *Map) EdgeBetween(a, b NodeID) (EdgeID, error) {
	for _, eid := range m.Nodes[a].Out {
		if m.Edges[eid].To == b {
			return eid, nil
		}
	}
	return -1, fmt.Errorf("world: no edge from node %d to %d", a, b)
}
