package geom

import "math"

// Point is a 2D point or vector in world coordinates (meters).
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Norm returns the Euclidean length of p.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Heading returns the angle of the vector p in radians, in (-π, π].
func (p Point) Heading() float64 { return math.Atan2(p.Y, p.X) }

// Unit returns p normalized to unit length, or the zero vector if p is zero.
func (p Point) Unit() Point {
	n := p.Norm()
	if n == 0 {
		return Point{}
	}
	return Point{p.X / n, p.Y / n}
}

// Rotate returns p rotated by theta radians counterclockwise.
func (p Point) Rotate(theta float64) Point { return NewRotation(theta).Apply(p) }

// Rotation is a rotation by a fixed angle with its sine and cosine computed
// once, for rotating many points by the same angle: Apply(p) is p.Rotate
// (theta) — the same Sincos, the same multiply-adds, the same bits.
type Rotation struct {
	sin, cos float64
}

// NewRotation returns the counterclockwise rotation by theta radians.
func NewRotation(theta float64) Rotation {
	s, c := math.Sincos(theta)
	return Rotation{sin: s, cos: c}
}

// Apply returns p rotated.
func (r Rotation) Apply(p Point) Point {
	return Point{r.cos*p.X - r.sin*p.Y, r.sin*p.X + r.cos*p.Y}
}

// Lerp linearly interpolates between p and q: t=0 yields p, t=1 yields q.
func Lerp(p, q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Segment is a directed line segment.
type Segment struct {
	A, B Point
}

// Length returns the segment length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// ClosestPoint returns the point on s closest to p and the parameter
// t ∈ [0, 1] such that the point equals Lerp(s.A, s.B, t).
func (s Segment) ClosestPoint(p Point) (Point, float64) {
	d := s.B.Sub(s.A)
	den := d.Dot(d)
	if den == 0 {
		return s.A, 0
	}
	t := p.Sub(s.A).Dot(d) / den
	t = Clamp(t, 0, 1)
	return Lerp(s.A, s.B, t), t
}

// DistToPoint returns the distance from p to the nearest point of s.
func (s Segment) DistToPoint(p Point) float64 {
	q, _ := s.ClosestPoint(p)
	return q.Dist(p)
}

// Clamp limits v to the interval [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// WrapAngle normalizes an angle to (-π, π].
func WrapAngle(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// Frame is a rigid 2D ego frame: origin at Origin, x-axis pointing along
// Heading. World points transform into the frame so that "ahead of the ego"
// maps to positive x.
type Frame struct {
	Origin  Point
	Heading float64
}

// ToLocal transforms a world-frame point into the ego frame.
func (f Frame) ToLocal(world Point) Point {
	return world.Sub(f.Origin).Rotate(-f.Heading)
}

// LocalFrame is the world→ego half of a Frame with its rotation computed
// once. Code that transforms many points through one frame — a cone query
// over its candidates, a rasterizer over its entities — builds it once
// instead of paying a Sincos per point; the results are Frame.ToLocal's bit
// for bit: both rotate through Rotation.Apply with the same Sincos.
type LocalFrame struct {
	origin Point
	rot    Rotation
}

// Local returns f's world→ego transform.
func (f Frame) Local() LocalFrame {
	return LocalFrame{origin: f.Origin, rot: NewRotation(-f.Heading)}
}

// ToLocal transforms a world-frame point into the ego frame.
func (l LocalFrame) ToLocal(world Point) Point { return l.rot.Apply(world.Sub(l.origin)) }

// WorldFrame is the ego→world half of a Frame with its rotation computed
// once; see LocalFrame.
type WorldFrame struct {
	origin Point
	rot    Rotation
}

// World returns f's ego→world transform.
func (f Frame) World() WorldFrame {
	return WorldFrame{origin: f.Origin, rot: NewRotation(f.Heading)}
}

// ToWorld transforms an ego-frame point back into world coordinates.
func (w WorldFrame) ToWorld(local Point) Point { return w.rot.Apply(local).Add(w.origin) }
