package geom

import "math"

// Polyline is a sequence of points with a precomputed arc-length
// parameterization, used for lane centerlines and vehicle routes.
type Polyline struct {
	pts    []Point
	cumLen []float64 // cumLen[i] = arc length from pts[0] to pts[i]
}

// NewPolyline builds a polyline from the given points. Consecutive duplicate
// points are collapsed. A polyline needs at least one point to be useful;
// an empty input yields an empty polyline with zero length.
func NewPolyline(pts []Point) *Polyline {
	clean := make([]Point, 0, len(pts))
	for _, p := range pts {
		if n := len(clean); n > 0 && clean[n-1].Dist(p) < 1e-12 {
			continue
		}
		clean = append(clean, p)
	}
	cum := make([]float64, len(clean))
	for i := 1; i < len(clean); i++ {
		cum[i] = cum[i-1] + clean[i-1].Dist(clean[i])
	}
	return &Polyline{pts: clean, cumLen: cum}
}

// Len returns the number of points.
func (pl *Polyline) Len() int { return len(pl.pts) }

// Points returns a copy of the underlying points.
func (pl *Polyline) Points() []Point {
	out := make([]Point, len(pl.pts))
	copy(out, pl.pts)
	return out
}

// Point returns the i-th point.
func (pl *Polyline) Point(i int) Point { return pl.pts[i] }

// Length returns the total arc length.
func (pl *Polyline) Length() float64 {
	if len(pl.cumLen) == 0 {
		return 0
	}
	return pl.cumLen[len(pl.cumLen)-1]
}

// At returns the point at arc length s from the start, clamped to the
// polyline's extent.
func (pl *Polyline) At(s float64) Point {
	n := len(pl.pts)
	switch {
	case n == 0:
		return Point{}
	case n == 1 || s <= 0:
		return pl.pts[0]
	case s >= pl.Length():
		return pl.pts[n-1]
	}
	i := pl.segmentIndex(s)
	segLen := pl.cumLen[i+1] - pl.cumLen[i]
	t := (s - pl.cumLen[i]) / segLen
	return Lerp(pl.pts[i], pl.pts[i+1], t)
}

// HeadingAt returns the tangent heading at arc length s.
func (pl *Polyline) HeadingAt(s float64) float64 {
	n := len(pl.pts)
	if n < 2 {
		return 0
	}
	i := pl.segmentIndex(Clamp(s, 0, pl.Length()))
	return pl.pts[i+1].Sub(pl.pts[i]).Heading()
}

// segmentIndex returns the index i of the segment [pts[i], pts[i+1]]
// containing arc length s. s must be within [0, Length()] and the polyline
// must have at least two points.
func (pl *Polyline) segmentIndex(s float64) int {
	lo, hi := 0, len(pl.cumLen)-1
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if pl.cumLen[mid] <= s {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Project returns the arc length of the point on the polyline closest to p,
// together with the distance from p to that point.
func (pl *Polyline) Project(p Point) (arc, dist float64) {
	n := len(pl.pts)
	if n == 0 {
		return 0, math.Inf(1)
	}
	if n == 1 {
		return 0, pl.pts[0].Dist(p)
	}
	best := NewNearest(p)
	bestArc := 0.0
	for i := 0; i < n-1; i++ {
		seg := Segment{A: pl.pts[i], B: pl.pts[i+1]}
		q, t := seg.ClosestPoint(p)
		if best.Closer(q) {
			bestArc = pl.cumLen[i] + t*seg.Length()
		}
	}
	return bestArc, best.Dist
}

// Nearest is the running minimum of a nearest-point scan: the distance from
// a fixed point to the closest candidate offered so far.
type Nearest struct {
	// Dist is the distance to the closest candidate, +Inf before the first.
	Dist float64

	to     Point
	screen float64 // Dist² with a relative margin
}

// NewNearest starts a scan for the candidate nearest to p.
func NewNearest(p Point) Nearest {
	return Nearest{Dist: math.Inf(1), to: p, screen: math.Inf(1)}
}

// Closer reports whether q is strictly closer than every candidate before
// it — exactly `q.Dist(p) < Dist` — and records it if so. A candidate whose
// squared distance exceeds Dist² by a relative margin is rejected without
// paying for the Hypot inside Dist: the margin (1e-9) is many orders of
// magnitude above the rounding error of the three-operation square
// (≈ 3 ulp), of Dist² (1 ulp) and math.Hypot's 1-ulp bound combined, so
// the screen only ever rejects what the exact comparison would — a scan's
// result is the unscreened scan's bit for bit, first-minimum tie-breaking
// included. A NaN square is never above the bound and falls through to the
// exact comparison.
func (n *Nearest) Closer(q Point) bool {
	dx, dy := q.X-n.to.X, q.Y-n.to.Y
	if dx*dx+dy*dy > n.screen {
		return false
	}
	d := math.Hypot(dx, dy) // q.Dist(n.to)
	if d < n.Dist {
		n.Dist, n.screen = d, d*d*(1+1e-9)
		return true
	}
	return false
}
