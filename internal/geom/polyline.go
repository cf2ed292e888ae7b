package geom

import "math"

// Polyline is a sequence of points with a precomputed arc-length
// parameterization, used for lane centerlines and vehicle routes.
type Polyline struct {
	pts    []Point
	cumLen []float64 // cumLen[i] = arc length from pts[0] to pts[i]
	blocks []bounds  // blocks[k] bounds segments [k·blockSegs, (k+1)·blockSegs)
}

// blockSegs is how many consecutive segments share one bounding box in
// ArcOf's coarse screen.
const blockSegs = 32

// bounds is the axis-aligned bounding box of a run of points. A NaN
// coordinate makes its bounds NaN, which screen nothing out.
type bounds struct{ lo, hi Point }

// add stretches bx over p.
func (bx *bounds) add(p Point) {
	bx.lo.X, bx.hi.X = min(bx.lo.X, p.X), max(bx.hi.X, p.X)
	bx.lo.Y, bx.hi.Y = min(bx.lo.Y, p.Y), max(bx.hi.Y, p.Y)
}

// NewPolyline builds a polyline from the given points. Consecutive duplicate
// points are collapsed. A polyline needs at least one point to be useful;
// an empty input yields an empty polyline with zero length.
func NewPolyline(pts []Point) *Polyline {
	b := NewPolylineBuilder(len(pts))
	for _, p := range pts {
		b.Add(p)
	}
	return b.Polyline()
}

// PolylineBuilder assembles a polyline a point at a time: NewPolyline over
// the points added, bit for bit.
type PolylineBuilder struct {
	pts    []Point
	cumLen []float64
	blocks []bounds
}

// NewPolylineBuilder returns an empty builder with room for n points.
func NewPolylineBuilder(n int) *PolylineBuilder {
	return &PolylineBuilder{pts: make([]Point, 0, n), cumLen: make([]float64, 0, n)}
}

// Regrow returns a builder holding copies of pl's first keep points and
// their arc lengths, with room for extra more. Building from it is
// NewPolyline over those points followed by the ones added, bit for bit —
// pl's points are already collapsed, so NewPolyline would keep each of them
// and sum the same lengths — and nothing added to it reaches pl.
func (pl *Polyline) Regrow(keep, extra int) *PolylineBuilder {
	b := NewPolylineBuilder(keep + extra)
	b.pts, b.cumLen = append(b.pts, pl.pts[:keep]...), append(b.cumLen, pl.cumLen[:keep]...)
	// Blocks whose last point is kept are copied; the one the cut runs
	// through is bounded again over its kept points.
	full := max(keep-1, 0) / blockSegs
	b.blocks = append(make([]bounds, 0, full+extra/blockSegs+1), pl.blocks[:full]...)
	for i := full * blockSegs; i+1 < keep; i++ {
		b.bound(i)
	}
	return b
}

// Add appends p unless it lies within 1e-12 of the last point kept.
func (b *PolylineBuilder) Add(p Point) {
	n := len(b.pts)
	if n == 0 {
		b.pts, b.cumLen = append(b.pts, p), append(b.cumLen, 0)
		return
	}
	d := b.pts[n-1].Dist(p)
	if d < 1e-12 {
		return
	}
	b.pts, b.cumLen = append(b.pts, p), append(b.cumLen, b.cumLen[n-1]+d)
	b.bound(n - 1)
}

// bound stretches the blocks over segment i, the last one added.
func (b *PolylineBuilder) bound(i int) {
	if i%blockSegs == 0 {
		a := b.pts[i]
		b.blocks = append(b.blocks, bounds{lo: a, hi: a})
	}
	b.blocks[len(b.blocks)-1].add(b.pts[i+1])
}

// Len returns the number of points kept so far.
func (b *PolylineBuilder) Len() int { return len(b.pts) }

// Polyline returns the polyline built. The builder must not be used after.
func (b *PolylineBuilder) Polyline() *Polyline {
	return &Polyline{pts: b.pts, cumLen: b.cumLen, blocks: b.blocks}
}

// Points returns a copy of the underlying points.
func (pl *Polyline) Points() []Point {
	out := make([]Point, len(pl.pts))
	copy(out, pl.pts)
	return out
}

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

// Pose returns (At(s), HeadingAt(s)) bit for bit from one segment search.
// Where At searches at all, s lies strictly inside (0, Length()) or is NaN,
// so Clamp leaves it unchanged and both find the same segment.
func (pl *Polyline) Pose(s float64) (Point, float64) {
	n := len(pl.pts)
	switch n {
	case 0:
		return Point{}, 0
	case 1:
		return pl.pts[0], 0
	}
	length := pl.Length()
	i := pl.segmentIndex(Clamp(s, 0, length))
	a, b := pl.pts[i], pl.pts[i+1]
	heading := b.Sub(a).Heading()
	switch {
	case s <= 0:
		return pl.pts[0], heading
	case s >= length:
		return pl.pts[n-1], heading
	}
	start := pl.cumLen[i]
	t := (s - start) / (pl.cumLen[i+1] - start)
	return Lerp(a, b, t), heading
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

// ArcOf returns Project(p)'s arc bit for bit, and the segment it read it
// from: seg is the index of the first segment whose closest point is p
// exactly, or -1 when no segment's is and the arc is Project's own.
//
// Project keeps the first strict minimum of the segments' distances, and
// nothing beats a distance of exactly 0, so when some segment's computed
// closest point is p its answer is the lowest such segment's arc:
// cumLen[seg] + t·|segment|, which is what ArcOf returns, found by a scan
// that stops there. A vertex pts[k] is such a point whenever its segment
// runs between finite points no farther apart than MaxFloat64:
// ClosestPoint takes t = ±0 and Lerp(A, B, ±0) is A. So a vertex's first hit
// lies at or before segment k, and its arc — cumLen[k] when the hit is
// segment k — reads no point past pts[k+1]. When nothing hits (a point off
// the vertices and off the segments' rounding, a collapsed near-duplicate,
// NaN or ±Inf coordinates, fewer than two points) ArcOf falls back to
// Project.
//
// Each segment is first screened by its bounding box, widened on each axis
// by m = 1e-9·(|a|+|b|) + 2⁻¹⁰²² for endpoint coordinates a and b. The
// closest point is Lerp(A, B, t) with t ∈ [0, 1]: a ⊕ ((b ⊖ a) ⊗ t), and with
// u = 2⁻⁵³ the exact a + (b−a)·t lies in [min(a,b), max(a,b)] while the
// computed value differs from it by at most |b−a|·(2u+u²) from the
// subtraction and product, 2⁻¹⁰⁷⁵ if the product underflows, and u times
// the sum's magnitude from the sum — together under 4u·(|a|+|b|) + 2⁻¹⁰⁷⁵.
// m and the box's two bounds round by a few u of their own, and 1e-9 ≫ 6u,
// 2⁻¹⁰²² ≫ 2⁻¹⁰⁷⁵: no t's rounded Lerp can land on p from a segment the
// screen rejects. An infinite endpoint makes m infinite, and a segment with
// a NaN coordinate never hits (its t is NaN), whatever the screen says.
//
// Before that, each block of blockSegs segments is screened the same way
// with its bounds for [min(a,b), max(a,b)] and 2·max(|lo|,|hi|) for |a|+|b|.
// Both stand on the safe side of every (non-NaN) segment's in the block,
// and rounding is monotone, so the block's widened box holds each of its
// segments' widened boxes: a block is skipped only when all of its segments
// would be.
func (pl *Polyline) ArcOf(p Point) (arc float64, seg int) {
	for k, bx := range pl.blocks {
		if bx.excludes(p) {
			continue
		}
		for i := k * blockSegs; i < min(k*blockSegs+blockSegs, len(pl.pts)-1); i++ {
			a, b := pl.pts[i], pl.pts[i+1]
			if outsideSpan(p.X, min(a.X, b.X), max(a.X, b.X), math.Abs(a.X)+math.Abs(b.X)) ||
				outsideSpan(p.Y, min(a.Y, b.Y), max(a.Y, b.Y), math.Abs(a.Y)+math.Abs(b.Y)) {
				continue
			}
			s := Segment{A: a, B: b}
			q, t := s.ClosestPoint(p)
			if q.X-p.X == 0 && q.Y-p.Y == 0 { // q.Dist(p) == 0
				return pl.cumLen[i] + t*s.Length(), i
			}
		}
	}
	arc, _ = pl.Project(p)
	return arc, -1
}

// excludes reports whether ArcOf's block screen rules out every segment of
// the block bx bounds.
func (bx bounds) excludes(p Point) bool {
	return outsideSpan(p.X, bx.lo.X, bx.hi.X, 2*max(math.Abs(bx.lo.X), math.Abs(bx.hi.X))) ||
		outsideSpan(p.Y, bx.lo.Y, bx.hi.Y, 2*max(math.Abs(bx.lo.Y), math.Abs(bx.hi.Y)))
}

// outsideSpan reports whether x lies outside [lo, hi] widened by ArcOf's
// margin for coordinates whose magnitudes sum to mag.
func outsideSpan(x, lo, hi, mag float64) bool {
	m := mag*1e-9 + 0x1p-1022
	return x < lo-m || x > hi+m
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
