package geom

import (
	"math"
	"math/rand"
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
	if pl.Len() != 2 {
		t.Errorf("len = %d, want 2", pl.Len())
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
