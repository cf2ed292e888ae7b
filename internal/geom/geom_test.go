package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointArithmetic(t *testing.T) {
	p := Pt(3, 4)
	q := Pt(1, -2)
	if got := p.Add(q); got != Pt(4, 2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(6, 8) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
}

func TestUnitAndZero(t *testing.T) {
	if got := Pt(0, 0).Unit(); got != Pt(0, 0) {
		t.Errorf("Unit of zero = %v", got)
	}
	u := Pt(3, 4).Unit()
	if !near(u.Norm(), 1) {
		t.Errorf("Unit norm = %v", u.Norm())
	}
}

func TestRotate(t *testing.T) {
	p := Pt(1, 0).Rotate(math.Pi / 2)
	if !near(p.X, 0) || !near(p.Y, 1) {
		t.Errorf("rotate 90° = %v", p)
	}
}

func TestRotatePreservesNorm(t *testing.T) {
	f := func(x, y, theta float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(theta) ||
			math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsInf(theta, 0) {
			return true
		}
		// Bound magnitudes to avoid float overflow noise.
		x, y = math.Mod(x, 1e6), math.Mod(y, 1e6)
		theta = math.Mod(theta, 2*math.Pi)
		p := Pt(x, y)
		return math.Abs(p.Rotate(theta).Norm()-p.Norm()) < 1e-6*(1+p.Norm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := Lerp(a, b, 0); got != a {
		t.Errorf("Lerp t=0: %v", got)
	}
	if got := Lerp(a, b, 1); got != b {
		t.Errorf("Lerp t=1: %v", got)
	}
	if got := Lerp(a, b, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp t=0.5: %v", got)
	}
}

func TestSegmentClosestPoint(t *testing.T) {
	s := Segment{A: Pt(0, 0), B: Pt(10, 0)}
	q, tt := s.ClosestPoint(Pt(5, 3))
	if q != Pt(5, 0) || !near(tt, 0.5) {
		t.Errorf("mid projection: %v t=%v", q, tt)
	}
	q, tt = s.ClosestPoint(Pt(-4, 2))
	if q != Pt(0, 0) || tt != 0 {
		t.Errorf("before-start clamps: %v t=%v", q, tt)
	}
	q, tt = s.ClosestPoint(Pt(99, 2))
	if q != Pt(10, 0) || tt != 1 {
		t.Errorf("after-end clamps: %v t=%v", q, tt)
	}
}

func TestSegmentDegenerate(t *testing.T) {
	s := Segment{A: Pt(2, 2), B: Pt(2, 2)}
	q, tt := s.ClosestPoint(Pt(5, 6))
	if q != Pt(2, 2) || tt != 0 {
		t.Errorf("degenerate segment: %v t=%v", q, tt)
	}
	if got := s.DistToPoint(Pt(5, 6)); !near(got, 5) {
		t.Errorf("degenerate distance = %v", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}

func TestWrapAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
	}
	for _, c := range cases {
		if got := WrapAngle(c.in); !near(got, c.want) {
			t.Errorf("WrapAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestWrapAngleRange(t *testing.T) {
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		a = math.Mod(a, 1000)
		w := WrapAngle(a)
		return w > -math.Pi-tol && w <= math.Pi+tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := Frame{Origin: Pt(10, -5), Heading: 1.1}
	pts := []Point{Pt(0, 0), Pt(3, 4), Pt(-7, 2)}
	for _, p := range pts {
		back := f.ToWorld(f.ToLocal(p))
		if !near(back.X, p.X) || !near(back.Y, p.Y) {
			t.Errorf("round trip of %v gives %v", p, back)
		}
	}
}

func TestFrameAheadIsPositiveX(t *testing.T) {
	// A point straight ahead of the ego maps to +x in the local frame.
	f := Frame{Origin: Pt(0, 0), Heading: math.Pi / 2} // facing north
	local := f.ToLocal(Pt(0, 10))
	if !near(local.X, 10) || !near(local.Y, 0) {
		t.Errorf("ahead point maps to %v, want (10,0)", local)
	}
	// A point to the left (west when facing north) maps to +y.
	local = f.ToLocal(Pt(-3, 0))
	if !near(local.X, 0) || !near(local.Y, 3) {
		t.Errorf("left point maps to %v, want (0,3)", local)
	}
}

// TestFrameTransformsMatchPerPointSincos pins the hoisted rotation to the
// formula it replaced: transforming through a frame computes Sincos(∓Heading)
// and one fixed sequence of multiply-adds, whether the rotation is built per
// point (Frame.ToLocal/ToWorld) or once (Frame.Local/World) — same bits.
func TestFrameTransformsMatchPerPointSincos(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		f := Frame{
			Origin:  Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000),
			Heading: rng.Float64()*4*math.Pi - 2*math.Pi,
		}
		p := Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000)

		s, c := math.Sincos(-f.Heading)
		d := Point{p.X - f.Origin.X, p.Y - f.Origin.Y}
		wantLocal := Point{c*d.X - s*d.Y, s*d.X + c*d.Y}
		if got := f.ToLocal(p); got != wantLocal {
			t.Fatalf("Frame.ToLocal(%v) in %+v = %v, want %v", p, f, got, wantLocal)
		}
		if got := f.Local().ToLocal(p); got != wantLocal {
			t.Fatalf("LocalFrame.ToLocal(%v) in %+v = %v, want %v", p, f, got, wantLocal)
		}

		s, c = math.Sincos(f.Heading)
		wantWorld := Point{c*p.X - s*p.Y + f.Origin.X, s*p.X + c*p.Y + f.Origin.Y}
		if got := f.ToWorld(p); got != wantWorld {
			t.Fatalf("Frame.ToWorld(%v) in %+v = %v, want %v", p, f, got, wantWorld)
		}
		if got := f.World().ToWorld(p); got != wantWorld {
			t.Fatalf("WorldFrame.ToWorld(%v) in %+v = %v, want %v", p, f, got, wantWorld)
		}
	}
}
