package bev

import (
	"math"

	"lbchat/internal/geom"
)

// RoadSampler answers point-in-road queries; the world's map implements it.
type RoadSampler interface {
	// IsRoad reports whether the world point lies on drivable road.
	IsRoad(p geom.Point) bool
}

// Channel indices within the BEV tensor.
const (
	ChannelRoad = iota
	ChannelVehicles
	ChannelPedestrians
	NumChannels
)

// Config describes BEV geometry. The grid covers the area ahead of the ego
// vehicle: rows sweep the forward axis (row 0 is farthest ahead), columns
// sweep laterally, and the ego sits at the middle of the bottom row.
type Config struct {
	Height int     // grid rows
	Width  int     // grid columns
	Range  float64 // forward view distance in meters (also normalization scale)
}

// DefaultConfig matches model.DefaultConfig's 3×16×16 BEV with a 32 m view
// (2 m cells — fine enough for lateral localization on a 10 m road).
func DefaultConfig() Config {
	return Config{Height: 16, Width: 16, Range: 32}
}

// Size returns the flattened tensor size (NumChannels × Height × Width).
func (c Config) Size() int { return NumChannels * c.Height * c.Width }

// CellSize returns the forward extent of one grid cell in meters.
func (c Config) CellSize() float64 { return c.Range / float64(c.Height) }

// Rasterizer renders BEV tensors for a fixed config and road map.
type Rasterizer struct {
	cfg   Config
	roads RoadSampler
}

// NewRasterizer creates a rasterizer over the given road sampler.
func NewRasterizer(cfg Config, roads RoadSampler) *Rasterizer {
	return &Rasterizer{cfg: cfg, roads: roads}
}

// Config returns the rasterizer's configuration.
func (r *Rasterizer) Config() Config { return r.cfg }

// Rasterize renders the BEV for an ego frame. vehicles and pedestrians are
// world-frame positions of OTHER entities (the ego must not be included).
// The output layout is channel-major: [road | vehicles | pedestrians], each
// Height×Width row-major with row 0 farthest ahead.
func (r *Rasterizer) Rasterize(frame geom.Frame, vehicles, pedestrians []geom.Point) []uint8 {
	cfg := r.cfg
	out := make([]uint8, cfg.Size())
	plane := cfg.Height * cfg.Width
	cell := cfg.CellSize()
	halfWidth := float64(cfg.Width) / 2 * cell
	// One rotation per direction per frame, not one per cell and entity.
	toWorld, toLocal := frame.World(), frame.Local()

	// Road channel: sample each cell center.
	for row := 0; row < cfg.Height; row++ {
		// Row 0 is farthest ahead; the bottom row touches the ego.
		fwd := cfg.Range - (float64(row)+0.5)*cell
		for col := 0; col < cfg.Width; col++ {
			lat := -halfWidth + (float64(col)+0.5)*cell
			world := toWorld.ToWorld(geom.Pt(fwd, lat))
			if r.roads.IsRoad(world) {
				out[ChannelRoad*plane+row*cfg.Width+col] = 1
			}
		}
	}

	// Entities paint their physical footprint (a disc), not a single point:
	// a car two cells long must look like one.
	mark := func(channel int, p geom.Point, radius float64) {
		local := toLocal.ToLocal(p)
		if local.X < -radius || local.X >= cfg.Range+radius {
			return
		}
		if local.Y < -halfWidth-radius || local.Y >= halfWidth+radius {
			return
		}
		rowLo := cfg.Height - 1 - int((local.X+radius)/cell)
		rowHi := cfg.Height - 1 - int((local.X-radius)/cell)
		colLo := int((local.Y - radius + halfWidth) / cell)
		colHi := int((local.Y + radius + halfWidth) / cell)
		for row := rowLo; row <= rowHi; row++ {
			if row < 0 || row >= cfg.Height {
				continue
			}
			fwd := cfg.Range - (float64(row)+0.5)*cell
			for col := colLo; col <= colHi; col++ {
				if col < 0 || col >= cfg.Width {
					continue
				}
				lat := -halfWidth + (float64(col)+0.5)*cell
				dx, dy := fwd-local.X, lat-local.Y
				if dx*dx+dy*dy <= (radius+cell/2)*(radius+cell/2) {
					out[channel*plane+row*cfg.Width+col] = 1
				}
			}
		}
	}
	for _, v := range vehicles {
		mark(ChannelVehicles, v, vehicleMarkRadius)
	}
	for _, p := range pedestrians {
		mark(ChannelPedestrians, p, pedestrianMarkRadius)
	}
	return out
}

// Footprint radii for entity rasterization (meters).
const (
	vehicleMarkRadius    = 2.2
	pedestrianMarkRadius = 0.9
)

// cullRadius returns the radius of the smallest ego-centered disc
// containing every entity of the given footprint radius that Rasterize
// could paint: the entity window spans local X ∈ [-r, Range+r) and
// |Y| < halfWidth+r, and every point of that box lies within the box
// corner's distance of the ego origin.
func (c Config) cullRadius(entityRadius float64) float64 {
	halfWidth := float64(c.Width) / 2 * c.CellSize()
	return math.Hypot(c.Range+entityRadius, halfWidth+entityRadius)
}

// VehicleCullRadius returns the ego-centered radius outside which a vehicle
// cannot mark any BEV cell. Callers use it to pre-cull entities through a
// spatial index; Rasterize applies the exact per-entity window test either
// way, so culling with any superset of this disc leaves the output
// byte-identical.
func (c Config) VehicleCullRadius() float64 { return c.cullRadius(vehicleMarkRadius) }

// PedestrianCullRadius is VehicleCullRadius for pedestrian footprints.
func (c Config) PedestrianCullRadius() float64 { return c.cullRadius(pedestrianMarkRadius) }

// NormalizeWaypoint converts an ego-frame waypoint (meters) into the
// normalized coordinates the model is trained on.
func (c Config) NormalizeWaypoint(local geom.Point) (x, y float64) {
	return local.X / c.Range, local.Y / c.Range
}

// DenormalizeWaypoint converts a normalized model output back into ego-frame
// meters.
func (c Config) DenormalizeWaypoint(x, y float64) geom.Point {
	return geom.Pt(x*c.Range, y*c.Range)
}
