package geom

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func line(pts ...Point) *Polyline { return NewPolyline(pts) }

func TestPolylineLength(t *testing.T) {
	pl := line(Pt(0, 0), Pt(3, 0), Pt(3, 4))
	if !near(pl.Length(), 7) {
		t.Errorf("length = %v, want 7", pl.Length())
	}
}

func TestPolylineCollapsesDuplicates(t *testing.T) {
	pl := line(Pt(0, 0), Pt(0, 0), Pt(1, 0))
	if len(pl.pts) != 2 {
		t.Errorf("len = %d, want 2", len(pl.pts))
	}
}

func TestPolylineAt(t *testing.T) {
	pl := line(Pt(0, 0), Pt(10, 0))
	cases := []struct {
		s    float64
		want Point
	}{
		{-5, Pt(0, 0)},
		{0, Pt(0, 0)},
		{4, Pt(4, 0)},
		{10, Pt(10, 0)},
		{99, Pt(10, 0)},
	}
	for _, c := range cases {
		if got := pl.At(c.s); !near(got.X, c.want.X) || !near(got.Y, c.want.Y) {
			t.Errorf("At(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestPolylineAtCorner(t *testing.T) {
	pl := line(Pt(0, 0), Pt(10, 0), Pt(10, 10))
	p := pl.At(15)
	if !near(p.X, 10) || !near(p.Y, 5) {
		t.Errorf("At(15) = %v, want (10,5)", p)
	}
}

func TestHeadingAt(t *testing.T) {
	pl := line(Pt(0, 0), Pt(10, 0), Pt(10, 10))
	if h := pl.HeadingAt(5); !near(h, 0) {
		t.Errorf("heading on first leg = %v", h)
	}
	if h := pl.HeadingAt(15); !near(h, math.Pi/2) {
		t.Errorf("heading on second leg = %v", h)
	}
}

func TestProject(t *testing.T) {
	pl := line(Pt(0, 0), Pt(10, 0), Pt(10, 10))
	arc, dist := pl.Project(Pt(4, 3))
	if !near(arc, 4) || !near(dist, 3) {
		t.Errorf("project (4,3): arc=%v dist=%v", arc, dist)
	}
	arc, dist = pl.Project(Pt(12, 7))
	if !near(arc, 17) || !near(dist, 2) {
		t.Errorf("project (12,7): arc=%v dist=%v", arc, dist)
	}
}

func TestProjectEmpty(t *testing.T) {
	pl := line()
	_, dist := pl.Project(Pt(1, 1))
	if !math.IsInf(dist, 1) {
		t.Errorf("empty polyline distance = %v, want +Inf", dist)
	}
}

func TestProjectSinglePoint(t *testing.T) {
	pl := line(Pt(2, 2))
	arc, dist := pl.Project(Pt(2, 5))
	if arc != 0 || !near(dist, 3) {
		t.Errorf("single point: arc=%v dist=%v", arc, dist)
	}
}

func TestProjectConsistentWithAt(t *testing.T) {
	// Projecting a point ON the polyline must return (≈arc, ≈0).
	pl := line(Pt(0, 0), Pt(20, 0), Pt(20, 15), Pt(0, 15))
	for s := 0.0; s <= pl.Length(); s += 1.7 {
		arc, dist := pl.Project(pl.At(s))
		if dist > 1e-9 {
			t.Fatalf("on-line point at s=%v has dist %v", s, dist)
		}
		if math.Abs(arc-s) > 1e-6 {
			t.Fatalf("on-line point at s=%v projects to arc %v", s, arc)
		}
	}
}

// sameBits reports whether a and b are the same float64 bit for bit, any
// two NaNs counting as the same: when both operands of an add or multiply
// are NaN, which payload survives depends on the compiler's operand order,
// so NaN payloads are no part of any contract here.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// checkPose fails unless pl.Pose(s) is (pl.At(s), pl.HeadingAt(s)) bit for
// bit.
func checkPose(t *testing.T, pl *Polyline, s float64) {
	t.Helper()
	p, h := pl.Pose(s)
	wantP, wantH := pl.At(s), pl.HeadingAt(s)
	if !sameBits(p.X, wantP.X) || !sameBits(p.Y, wantP.Y) || !sameBits(h, wantH) {
		t.Fatalf("%d points: Pose(%v) = (%v, %v), At/HeadingAt (%v, %v)", len(pl.pts), s, p, h, wantP, wantH)
	}
}

// TestPoseMatchesAtAndHeadingAt queries Pose at every vertex arc, at every
// segment midpoint and at the edge values — both signed zeros, the ends,
// beyond them, NaN and ±Inf — on polylines of 0, 1, 2 and many points,
// including points closer than a rounding step of their running arc length.
func TestPoseMatchesAtAndHeadingAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	walk := []Point{Pt(0, 0)}
	for i := 0; i < 200; i++ {
		walk = append(walk, walk[len(walk)-1].Add(Pt(rng.Float64()*20-10, rng.Float64()*20-10)))
	}
	far := []Point{Pt(0, 0), Pt(1e9, 0)}
	for i := 1; i <= 50; i++ {
		// Steps of 1e-8 m after a 1e9 m leg: far above the 1e-12 collapse
		// threshold, below a rounding step of the arc length, so runs of
		// segments share one cumLen value.
		far = append(far, Pt(1e9, float64(i)*1e-8))
	}
	lines := []*Polyline{
		line(), line(Pt(2, 3)), line(Pt(0, 0), Pt(10, 0)),
		line(Pt(0, 0), Pt(1e-12, 0), Pt(2e-12, 1e-12), Pt(5, 5)),
		NewPolyline(walk), NewPolyline(far),
	}
	for _, pl := range lines {
		queries := []float64{-1, math.Copysign(0, -1), 0, pl.Length(), pl.Length() + 1,
			math.NaN(), math.Inf(1), math.Inf(-1)}
		for i, c := range pl.cumLen {
			queries = append(queries, c)
			if i+1 < len(pl.cumLen) {
				queries = append(queries, (c+pl.cumLen[i+1])/2)
			}
		}
		for _, s := range queries {
			checkPose(t, pl, s)
		}
	}
}

// FuzzPolylinePose builds a polyline from arbitrary coordinates (16 bytes a
// point) and queries it at an arbitrary arc: Pose never panics and always
// equals (At, HeadingAt) bit for bit.
func FuzzPolylinePose(f *testing.F) {
	pts := func(coords ...float64) []byte {
		raw := make([]byte, 0, 8*len(coords))
		for _, c := range coords {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(c))
		}
		return raw
	}
	f.Add([]byte{}, 1.0)
	f.Add(pts(1, 2), 0.0)
	f.Add(pts(0, 0, 10, 0, 10, 10), 15.0)
	f.Add(pts(0, 0, 1e-13, 0, 3, 4), math.NaN())
	f.Add(pts(1e300, 0, -1e300, 0, math.Inf(1), 5), 2.5)
	f.Fuzz(func(t *testing.T, raw []byte, s float64) {
		var p []Point
		for ; len(raw) >= 16; raw = raw[16:] {
			p = append(p, Pt(math.Float64frombits(binary.LittleEndian.Uint64(raw)),
				math.Float64frombits(binary.LittleEndian.Uint64(raw[8:]))))
		}
		checkPose(t, NewPolyline(p), s)
	})
}

// unscreenedProject is Project as it was before the squared-distance
// screen: a Hypot per segment. It is the oracle the screened scan must
// reproduce bit for bit, first-minimum tie-breaking included.
func unscreenedProject(pl *Polyline, p Point) (arc, dist float64) {
	bestDist := math.Inf(1)
	bestArc := 0.0
	for i := 0; i < len(pl.pts)-1; i++ {
		seg := Segment{A: pl.pts[i], B: pl.pts[i+1]}
		q, t := seg.ClosestPoint(p)
		if d := q.Dist(p); d < bestDist {
			bestDist = d
			bestArc = pl.cumLen[i] + t*seg.Length()
		}
	}
	return bestArc, bestDist
}

// TestProjectMatchesUnscreenedScan projects points on, near and far from
// random walks that revisit themselves — exact ties between visits are what
// a route looping through a corner twice produces — and points with
// non-finite coordinates.
func TestProjectMatchesUnscreenedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		// A lattice walk: segments overlap and cross, so many segments are
		// equidistant from a query.
		pts := []Point{Pt(0, 0)}
		for len(pts) < 2+rng.Intn(60) {
			last := pts[len(pts)-1]
			step := []Point{Pt(10, 0), Pt(-10, 0), Pt(0, 10), Pt(0, -10)}[rng.Intn(4)]
			pts = append(pts, last.Add(step))
		}
		pl := NewPolyline(pts)
		queries := []Point{Pt(math.NaN(), 0), Pt(math.Inf(1), 3), Pt(1e200, -1e200)}
		for q := 0; q < 40; q++ {
			on := pl.At(rng.Float64() * pl.Length())
			queries = append(queries, on,
				on.Add(Pt(rng.Float64()*8-4, rng.Float64()*8-4)),
				Pt(rng.Float64()*400-200, rng.Float64()*400-200))
		}
		for _, p := range queries {
			gotArc, gotDist := pl.Project(p)
			wantArc, wantDist := unscreenedProject(pl, p)
			if math.Float64bits(gotArc) != math.Float64bits(wantArc) || math.Float64bits(gotDist) != math.Float64bits(wantDist) {
				t.Fatalf("trial %d: Project(%v) = (%v, %v), unscreened scan (%v, %v)", trial, p, gotArc, gotDist, wantArc, wantDist)
			}
		}
	}
}

// firstHit is the segment ArcOf must name, found without its screen: the
// lowest one whose closest point to p is at distance exactly 0, or -1.
func firstHit(pl *Polyline, p Point) int {
	for i := 0; i+1 < len(pl.pts); i++ {
		if (Segment{A: pl.pts[i], B: pl.pts[i+1]}).DistToPoint(p) == 0 {
			return i
		}
	}
	return -1
}

// checkArcOf fails unless pl.ArcOf(p) is Project(p)'s arc bit for bit and
// names the first segment that hits p exactly.
func checkArcOf(t *testing.T, pl *Polyline, p Point) {
	t.Helper()
	arc, seg := pl.ArcOf(p)
	want, _ := pl.Project(p)
	if !sameBits(arc, want) || seg != firstHit(pl, p) {
		t.Fatalf("%d points: ArcOf(%v) = (%v, %d), Project's arc %v, first hit %d", len(pl.pts), p, arc, seg, want, firstHit(pl, p))
	}
}

// blocked is the polyline of pts and cumLen as given, bounded for ArcOf.
func blocked(pts []Point, cumLen []float64) *Polyline {
	b := &PolylineBuilder{pts: pts, cumLen: cumLen}
	for i := 0; i+1 < len(pts); i++ {
		b.bound(i)
	}
	return b.Polyline()
}

// TestArcOfMatchesProject queries ArcOf at every vertex, at each segment's
// Lerp(A, B, 1), at every raw input point (near-duplicates NewPolyline drops
// included) and at random points
// on, near and off polylines that revisit their corners, have zero-length
// and axis-parallel segments, and carry ±0, subnormal, 1e300, near-overflow,
// ±Inf and NaN coordinates.
func TestArcOfMatchesProject(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	negZero := math.Copysign(0, -1)
	var raws [][]Point
	for trial := 0; trial < 150; trial++ {
		// A lattice walk through corners it has passed before, with a near
		// duplicate (collapsed by NewPolyline) after some of its points.
		raw := []Point{Pt(0, 0)}
		for len(raw) < 2+rng.Intn(150) {
			last := raw[len(raw)-1]
			if rng.Intn(5) == 0 {
				raw = append(raw, last.Add(Pt(rng.Float64()*5e-13, 0)))
				continue
			}
			step := []Point{Pt(10, 0), Pt(-10, 0), Pt(0, 10), Pt(0, -10), Pt(7, 7)}[rng.Intn(5)]
			raw = append(raw, last.Add(step))
		}
		raws = append(raws, raw)
		// A free walk at a random scale, subnormal to 1e300.
		scale := math.Pow(10, float64(rng.Intn(620)-315))
		walk := []Point{Pt(rng.Float64()*scale, rng.Float64()*scale)}
		for i := 0; i < 40; i++ {
			walk = append(walk, walk[len(walk)-1].Add(Pt((rng.Float64()-0.5)*scale, (rng.Float64()-0.5)*scale)))
		}
		raws = append(raws, walk)
	}
	raws = append(raws,
		[]Point{Pt(negZero, 0), Pt(0, negZero), Pt(negZero, negZero), Pt(0, 1)},
		[]Point{Pt(5e-324, 0), Pt(0, 5e-324), Pt(1e-310, 1e-310), Pt(1, 1)},
		[]Point{Pt(1e300, -1e300), Pt(-1e300, 1e300), Pt(1e300, 1e300)},
		[]Point{Pt(1.7e308, 0), Pt(-1.7e308, 0), Pt(0, 1.7e308), Pt(1.7e308, 0)},
		[]Point{Pt(0, 0), Pt(math.Inf(1), 0), Pt(math.Inf(1), 0), Pt(3, math.Inf(-1)), Pt(1, 1)},
		[]Point{Pt(0, 0), Pt(math.NaN(), 1), Pt(2, 2), Pt(2, math.NaN()), Pt(0, 0)},
		[]Point{Pt(2, 3)}, nil,
	)
	lines := []*Polyline{
		// Zero-length segments, which NewPolyline would collapse: an exact
		// repeat, and a step whose squared length underflows to 0.
		blocked([]Point{Pt(0, 0), Pt(0, 0), Pt(3, 4), Pt(3+1e-170, 4), Pt(0, 0)}, []float64{0, 0, 5, 5, 10}),
	}
	for _, raw := range raws {
		lines = append(lines, NewPolyline(raw))
	}
	for li, pl := range lines {
		queries := []Point{Pt(math.NaN(), 0), Pt(math.Inf(1), 3), Pt(negZero, negZero), Pt(1e300, 1e300)}
		queries = append(queries, pl.pts...)
		for i := 0; i+1 < len(pl.pts); i++ {
			// Lerp(A, B, 1) need not be B, nor inside the segment's box.
			queries = append(queries, Lerp(pl.pts[i], pl.pts[i+1], 1))
		}
		if li > 0 {
			queries = append(queries, raws[li-1]...)
		}
		for q := 0; q < 20 && len(pl.pts) > 1; q++ {
			on := pl.At(rng.Float64() * pl.Length())
			i := rng.Intn(len(pl.pts) - 1)
			queries = append(queries, on, Lerp(pl.pts[i], pl.pts[i+1], rng.Float64()),
				on.Add(Pt(rng.Float64()*8-4, rng.Float64()*8-4)),
				Pt(rng.Float64()*400-200, rng.Float64()*400-200))
		}
		for _, p := range queries {
			checkArcOf(t, pl, p)
		}
	}
}

// FuzzArcOf builds a polyline from arbitrary coordinates (16 bytes a point)
// and queries ArcOf at an arbitrary point, at every vertex and at each
// segment's Lerp(A, B, 1): it equals
// Project's arc bit for bit and names the first exact hit.
func FuzzArcOf(f *testing.F) {
	pts := func(coords ...float64) []byte {
		raw := make([]byte, 0, 8*len(coords))
		for _, c := range coords {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(c))
		}
		return raw
	}
	f.Add([]byte{}, 1.0, 2.0)
	f.Add(pts(0, 0, 10, 0, 10, 10, 0, 10, 0, 0, 10, 0), 10.0, 0.0)
	f.Add(pts(0, 0, 1e-13, 0, 3, 4), 1e-13, 0.0)
	f.Add(pts(5e-324, 0, 0, 5e-324, 1e300, -1e300), 0.0, 0.0)
	f.Add(pts(1.7e308, 0, -1.7e308, 0, math.Inf(1), 5), math.NaN(), 5.0)
	f.Fuzz(func(t *testing.T, raw []byte, x, y float64) {
		var p []Point
		for ; len(raw) >= 16; raw = raw[16:] {
			p = append(p, Pt(math.Float64frombits(binary.LittleEndian.Uint64(raw)),
				math.Float64frombits(binary.LittleEndian.Uint64(raw[8:]))))
		}
		pl := NewPolyline(p)
		checkArcOf(t, pl, Pt(x, y))
		for i, v := range pl.pts {
			checkArcOf(t, pl, v)
			if i+1 < len(pl.pts) {
				checkArcOf(t, pl, Lerp(v, pl.pts[i+1], 1))
			}
		}
	})
}

// TestRegrowMatchesNewPolyline regrows random prefixes of random polylines
// (near-duplicates included) by random tails: the result is NewPolyline
// over prefix and tail bit for bit, ArcOf's block bounds included, and the
// original is untouched.
func TestRegrowMatchesNewPolyline(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	walk := func(n int) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(float64(rng.Intn(5)), float64(rng.Intn(5))) // repeats collapse
			if rng.Intn(4) == 0 && i > 0 {
				pts[i] = pts[i-1].Add(Pt(3e-13, 0))
			}
		}
		return pts
	}
	for trial := 0; trial < 300; trial++ {
		pl := NewPolyline(walk(rng.Intn(120)))
		snap := NewPolyline(pl.Points())
		keep := rng.Intn(len(pl.pts) + 1)
		tail := walk(rng.Intn(120))
		b := pl.Regrow(keep, rng.Intn(3))
		for _, p := range tail {
			b.Add(p)
		}
		got := b.Polyline()
		want := NewPolyline(append(pl.Points()[:keep], tail...))
		for _, c := range []struct{ a, b *Polyline }{{got, want}, {pl, snap}} {
			if len(c.a.pts) != len(c.b.pts) {
				t.Fatalf("trial %d: %d points, want %d", trial, len(c.a.pts), len(c.b.pts))
			}
			for i := range c.a.pts {
				if c.a.pts[i] != c.b.pts[i] || !sameBits(c.a.cumLen[i], c.b.cumLen[i]) {
					t.Fatalf("trial %d: point %d = %v at %v, want %v at %v", trial, i, c.a.pts[i], c.a.cumLen[i], c.b.pts[i], c.b.cumLen[i])
				}
			}
			if !slices.Equal(c.a.blocks, c.b.blocks) {
				t.Fatalf("trial %d: blocks %v, want %v", trial, c.a.blocks, c.b.blocks)
			}
		}
	}
}
