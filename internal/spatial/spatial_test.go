package spatial

import (
	"math"
	"testing"

	"lbchat/internal/geom"
	"lbchat/internal/simrand"
)

// bruteNeighbors is the reference O(N) scan Neighbors must agree with.
func bruteNeighbors(pts []geom.Point, p geom.Point, r float64) []int {
	var out []int
	for i, q := range pts {
		if q.Dist(p) <= r {
			out = append(out, i)
		}
	}
	return out
}

// brutePairs is the reference O(N²) double loop Pairs must agree with,
// including enumeration order.
func brutePairs(pts []geom.Point, r float64) []Pair {
	var out []Pair
	for a := 0; a < len(pts); a++ {
		for b := a + 1; b < len(pts); b++ {
			if pts[a].Dist(pts[b]) <= r {
				out = append(out, Pair{A: a, B: b})
			}
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalPairs(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randomScene scatters n points over a box spanning negative and positive
// coordinates, with a cluster thrown in so some cells are dense.
func randomScene(rng *simrand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		if i%4 == 0 { // dense cluster near the origin
			pts[i] = geom.Pt(rng.Uniform(-20, 20), rng.Uniform(-20, 20))
		} else {
			pts[i] = geom.Pt(rng.Uniform(-500, 900), rng.Uniform(-400, 800))
		}
	}
	return pts
}

// TestIndexMatchesBruteForceRandomized is the core property test: on many
// randomized scenes, cell sizes, and radii, Neighbors and Pairs must agree
// with the brute-force scans exactly — same sets, same canonical order.
func TestIndexMatchesBruteForceRandomized(t *testing.T) {
	rng := simrand.New(42)
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(120)
		pts := randomScene(rng, n)
		cell := rng.Uniform(0.5, 200)
		r := rng.Uniform(0, 300)
		ix := New(cell)
		ix.Rebuild(pts)

		if got, want := ix.Pairs(nil, r), brutePairs(pts, r); !equalPairs(got, want) {
			t.Fatalf("trial %d (n=%d cell=%g r=%g): Pairs = %v, brute = %v", trial, n, cell, r, got, want)
		}
		for q := 0; q < 10; q++ {
			p := geom.Pt(rng.Uniform(-600, 1000), rng.Uniform(-500, 900))
			if got, want := ix.Neighbors(nil, p, r), bruteNeighbors(pts, p, r); !equalInts(got, want) {
				t.Fatalf("trial %d: Neighbors(%v, %g) = %v, brute = %v", trial, p, r, got, want)
			}
		}
	}
}

// checkBucketBudget holds the index to its memory bound: at most 8·n + 1024
// buckets, whatever extent the points span.
func checkBucketBudget(t *testing.T, ix *Index) {
	t.Helper()
	if got, limit := len(ix.heads), 8*ix.Len()+1024; got > limit {
		t.Fatalf("%d buckets for %d points (eff cell %g), budget %d", got, ix.Len(), ix.eff, limit)
	}
}

// checkBucketsDescending holds a freshly laid-out index to the invariant
// Pairs' early exit rests on: the descending bit is set and every bucket
// list runs in strictly descending point order.
func checkBucketsDescending(t *testing.T, ix *Index) {
	t.Helper()
	if !ix.descending {
		t.Fatal("layout left the descending bit clear")
	}
	for b, head := range ix.heads {
		for id := head; id >= 0 && ix.next[id] >= 0; id = ix.next[id] {
			if ix.next[id] >= id {
				t.Fatalf("bucket %d lists point %d before %d", b, id, ix.next[id])
			}
		}
	}
}

// TestIndexUpdateMatchesRebuild moves points one at a time (the world's
// in-tick pattern) and checks that incremental updates answer queries
// exactly like a fresh rebuild and like the brute-force scans at every
// step: small moves inside the occupied cell box, long walks that leave it
// (each forcing a re-layout), and two clusters 1e7 m apart at a 1 m cell,
// where only a coarser effective cell keeps the bucket array bounded. The
// updated index's Pairs pins the descending bit: an Update that files a
// low point ahead of higher ones must turn Pairs' early exit off.
func TestIndexUpdateMatchesRebuild(t *testing.T) {
	farApart := func(rng *simrand.Rand, n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Uniform(-30, 30), rng.Uniform(-30, 30))
			if i%2 == 1 {
				pts[i] = pts[i].Add(geom.Pt(1e7, -1e7))
			}
		}
		return pts
	}
	cases := []struct {
		name  string
		cell  float64
		scene func(*simrand.Rand, int) []geom.Point
		move  float64 // per-step displacement bound
		maxR  float64
	}{
		{"moves inside the box", 25, randomScene, 40, 120},
		{"walks leaving the box", 25, randomScene, 3000, 120},
		{"two clusters 1e7 m apart", 1, farApart, 15, 40},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := simrand.New(7)
			pts := tc.scene(rng, 80)
			ix := New(tc.cell)
			ix.Rebuild(pts)
			checkBucketBudget(t, ix)
			fresh := New(tc.cell)
			for step := 0; step < 200; step++ {
				i := rng.Intn(len(pts))
				pts[i] = pts[i].Add(geom.Pt(rng.Uniform(-tc.move, tc.move), rng.Uniform(-tc.move, tc.move)))
				ix.Update(i, pts[i])
				checkBucketBudget(t, ix)
				fresh.Rebuild(pts)
				checkBucketsDescending(t, fresh)
				r := rng.Uniform(0, tc.maxR)
				p := pts[rng.Intn(len(pts))]
				got, want := ix.Neighbors(nil, p, r), bruteNeighbors(pts, p, r)
				if !equalInts(got, want) {
					t.Fatalf("step %d: updated index Neighbors = %v, brute = %v", step, got, want)
				}
				if rebuilt := fresh.Neighbors(nil, p, r); !equalInts(rebuilt, want) {
					t.Fatalf("step %d: rebuilt index Neighbors = %v, brute = %v", step, rebuilt, want)
				}
				gp, wp := ix.Pairs(nil, r), brutePairs(pts, r)
				if !equalPairs(gp, wp) {
					t.Fatalf("step %d: updated index Pairs = %v, brute = %v", step, gp, wp)
				}
				if rp := fresh.Pairs(nil, r); !equalPairs(rp, wp) {
					t.Fatalf("step %d: rebuilt index Pairs = %v, brute = %v", step, rp, wp)
				}
			}
		})
	}
}

// TestIndexHostileCoordinates feeds the index coordinates no simulation
// produces but a corrupt trace could: it must neither panic nor allocate
// beyond its bucket budget, and must still agree with the brute scans.
func TestIndexHostileCoordinates(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(3, 4), geom.Pt(1e300, -1e300), geom.Pt(-1e300, 5),
		geom.Pt(inf, 0), geom.Pt(-inf, inf), geom.Pt(nan, 1), geom.Pt(2, nan), geom.Pt(1e18, 1e18),
	}
	ix := New(1)
	ix.Rebuild(pts)
	checkBucketBudget(t, ix)
	for _, r := range []float64{0, 5, 1e18, 1e300, inf} {
		if got, want := ix.Pairs(nil, r), brutePairs(pts, r); !equalPairs(got, want) {
			t.Errorf("Pairs(%g) = %v, brute = %v", r, got, want)
		}
		for _, q := range pts {
			if got, want := ix.Neighbors(nil, q, r), bruteNeighbors(pts, q, r); !equalInts(got, want) {
				t.Errorf("Neighbors(%v, %g) = %v, brute = %v", q, r, got, want)
			}
		}
	}
	// Moving a point onto and off a hostile coordinate keeps the index whole.
	for _, p := range []geom.Point{geom.Pt(nan, nan), geom.Pt(-inf, 2), geom.Pt(1, 1)} {
		pts[1] = p
		ix.Update(1, p)
		checkBucketBudget(t, ix)
		if got, want := ix.Neighbors(nil, geom.Pt(0, 0), 6), bruteNeighbors(pts, geom.Pt(0, 0), 6); !equalInts(got, want) {
			t.Errorf("after Update(1, %v): Neighbors = %v, brute = %v", p, got, want)
		}
	}
}

// TestIndexEdgeCases pins the behaviors a uniform grid gets wrong when
// written carelessly: points exactly on cell boundaries, radii larger than
// the whole extent, empty indices, single entities, and negative
// coordinates.
func TestIndexEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		cell float64
		pts  []geom.Point
		q    geom.Point
		r    float64
	}{
		{
			name: "empty index",
			cell: 10,
			pts:  nil,
			q:    geom.Pt(3, 4),
			r:    100,
		},
		{
			name: "single entity hit",
			cell: 10,
			pts:  []geom.Point{geom.Pt(5, 5)},
			q:    geom.Pt(6, 5),
			r:    2,
		},
		{
			name: "single entity miss",
			cell: 10,
			pts:  []geom.Point{geom.Pt(5, 5)},
			q:    geom.Pt(50, 50),
			r:    2,
		},
		{
			name: "entities exactly on cell boundaries",
			cell: 10,
			pts: []geom.Point{
				geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(0, 10), geom.Pt(10, 10),
				geom.Pt(-10, 0), geom.Pt(0, -10), geom.Pt(-10, -10),
				geom.Pt(20, 20), geom.Pt(30, 10),
			},
			q: geom.Pt(10, 10),
			r: 10,
		},
		{
			name: "query exactly on boundary with radius touching neighbors",
			cell: 5,
			pts:  []geom.Point{geom.Pt(4.999999, 0), geom.Pt(5, 0), geom.Pt(5.000001, 0), geom.Pt(10, 0)},
			q:    geom.Pt(5, 0),
			r:    5,
		},
		{
			name: "radius larger than the map",
			cell: 10,
			pts:  []geom.Point{geom.Pt(-300, -200), geom.Pt(0, 0), geom.Pt(450, 500), geom.Pt(12, -7)},
			q:    geom.Pt(20, 30),
			r:    1e9,
		},
		{
			// A radius of ≥ 2³¹ cells used to overflow the int32 cell
			// conversion before clamping and return nothing.
			name: "radius of 1e10 cells",
			cell: 10,
			pts:  []geom.Point{geom.Pt(0, 0), geom.Pt(35, -20)},
			q:    geom.Pt(0, 0),
			r:    1e11,
		},
		{
			name: "radius whose square overflows",
			cell: 10,
			pts:  []geom.Point{geom.Pt(0, 0), geom.Pt(35, -20)},
			q:    geom.Pt(0, 0),
			r:    1e300,
		},
		{
			name: "infinite radius",
			cell: 10,
			pts:  []geom.Point{geom.Pt(0, 0), geom.Pt(35, -20), geom.Pt(-1e6, 3)},
			q:    geom.Pt(0, 0),
			r:    math.Inf(1),
		},
		{
			name: "negative coordinates",
			cell: 7,
			pts:  []geom.Point{geom.Pt(-1, -1), geom.Pt(-7, -7), geom.Pt(-6.999, -7.001), geom.Pt(-100, -50), geom.Pt(3, -2)},
			q:    geom.Pt(-5, -5),
			r:    8,
		},
		{
			name: "coincident points",
			cell: 10,
			pts:  []geom.Point{geom.Pt(1, 1), geom.Pt(1, 1), geom.Pt(1, 1)},
			q:    geom.Pt(1, 1),
			r:    0,
		},
		{
			name: "zero radius",
			cell: 10,
			pts:  []geom.Point{geom.Pt(1, 2), geom.Pt(1, 2), geom.Pt(3, 4)},
			q:    geom.Pt(1, 2),
			r:    0,
		},
		{
			name: "negative radius returns nothing",
			cell: 10,
			pts:  []geom.Point{geom.Pt(1, 2)},
			q:    geom.Pt(1, 2),
			r:    -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ix := New(tc.cell)
			ix.Rebuild(tc.pts)
			if got, want := ix.Neighbors(nil, tc.q, tc.r), bruteNeighbors(tc.pts, tc.q, tc.r); !equalInts(got, want) {
				t.Errorf("Neighbors = %v, brute = %v", got, want)
			}
			if got, want := ix.Pairs(nil, tc.r), brutePairs(tc.pts, tc.r); !equalPairs(got, want) {
				t.Errorf("Pairs = %v, brute = %v", got, want)
			}
		})
	}
}

// TestForCandidatesSuperset checks the ForCandidates contract: it must
// visit a superset of the exact closed-ball neighbors and stop on demand.
func TestForCandidatesSuperset(t *testing.T) {
	rng := simrand.New(11)
	pts := randomScene(rng, 100)
	ix := New(30)
	ix.Rebuild(pts)
	for q := 0; q < 30; q++ {
		p := geom.Pt(rng.Uniform(-500, 900), rng.Uniform(-400, 800))
		r := rng.Uniform(0, 200)
		seen := map[int]bool{}
		ix.ForCandidates(p, r, func(i int, pt geom.Point) bool {
			if pt != pts[i] {
				t.Fatalf("candidate %d reported position %v, want %v", i, pt, pts[i])
			}
			seen[i] = true
			return true
		})
		for _, i := range bruteNeighbors(pts, p, r) {
			if !seen[i] {
				t.Fatalf("ForCandidates(%v, %g) missed exact neighbor %d", p, r, i)
			}
		}
	}
	// Early termination: fn returning false stops after the first visit.
	visits := 0
	ix.ForCandidates(geom.Pt(0, 0), 1e9, func(int, geom.Point) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Errorf("early-stop enumeration visited %d candidates, want 1", visits)
	}
}

// TestNewDegenerateCellSize checks the fallback for nonsensical cell sizes.
func TestNewDegenerateCellSize(t *testing.T) {
	for _, cell := range []float64{0, -3, math.NaN(), math.Inf(1)} {
		ix := New(cell)
		if ix.CellSize() != 1 {
			t.Errorf("New(%v) cell size = %g, want fallback 1", cell, ix.CellSize())
		}
		ix.Rebuild([]geom.Point{geom.Pt(2, 2), geom.Pt(2.5, 2)})
		if got := ix.Neighbors(nil, geom.Pt(2, 2), 1); len(got) != 2 {
			t.Errorf("New(%v) Neighbors = %v, want both points", cell, got)
		}
	}
}
