package spatial

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"lbchat/internal/geom"
	"lbchat/internal/simrand"
)

// neighbors is a range query the way internal/world runs one: ForCandidates
// filtered by the exact closed-ball predicate (WithinBall, which answers as
// `q.Dist(p) <= r` does), sorted for comparison with bruteNeighbors.
func neighbors(ix *Index, p geom.Point, r float64) []int {
	var out []int
	rr := r * r
	ix.ForCandidates(p, r, func(i int, q geom.Point) bool {
		if WithinBall(p, q, r, rr) {
			out = append(out, i)
		}
		return true
	})
	slices.Sort(out)
	return out
}

// bruteNeighbors is the reference O(N) scan neighbors must agree with.
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
// randomized scenes, cell sizes, and radii, neighbors and Pairs must agree
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
			if got, want := neighbors(ix, p, r), bruteNeighbors(pts, p, r); !equalInts(got, want) {
				t.Fatalf("trial %d: neighbors(%v, %g) = %v, brute = %v", trial, p, r, got, want)
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

// TestIndexUpdateMatchesRebuild moves points one at a time (the world's
// in-tick pattern) and checks that incremental updates answer queries
// exactly like a fresh rebuild and like the brute-force scans at every
// step: small moves inside the occupied cell box, long walks that leave it
// (each forcing a re-layout), and two clusters 1e7 m apart at a 1 m cell,
// where only a coarser effective cell keeps the bucket array bounded.
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
				r := rng.Uniform(0, tc.maxR)
				p := pts[rng.Intn(len(pts))]
				got, want := neighbors(ix, p, r), bruteNeighbors(pts, p, r)
				if !equalInts(got, want) {
					t.Fatalf("step %d: updated index neighbors = %v, brute = %v", step, got, want)
				}
				if rebuilt := neighbors(fresh, p, r); !equalInts(rebuilt, want) {
					t.Fatalf("step %d: rebuilt index neighbors = %v, brute = %v", step, rebuilt, want)
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
			if got, want := neighbors(ix, q, r), bruteNeighbors(pts, q, r); !equalInts(got, want) {
				t.Errorf("neighbors(%v, %g) = %v, brute = %v", q, r, got, want)
			}
		}
	}
	// Moving a point onto and off a hostile coordinate keeps the index whole.
	for _, p := range []geom.Point{geom.Pt(nan, nan), geom.Pt(-inf, 2), geom.Pt(1, 1)} {
		pts[1] = p
		ix.Update(1, p)
		checkBucketBudget(t, ix)
		if got, want := neighbors(ix, geom.Pt(0, 0), 6), bruteNeighbors(pts, geom.Pt(0, 0), 6); !equalInts(got, want) {
			t.Errorf("after Update(1, %v): neighbors = %v, brute = %v", p, got, want)
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
			// The two points are exactly r apart by the predicate, but
			// their exact offset is r + ulp(350): an unwidened box of either
			// stops one ulp short of the other's cell.
			name: "pair at r across the origin, a cell boundary apart",
			cell: 350,
			pts:  []geom.Point{geom.Pt(-math.Nextafter(350, 400), 0), geom.Pt(350, 0), geom.Pt(0, -math.Nextafter(350, 400)), geom.Pt(0, 350)},
			q:    geom.Pt(350, 0),
			r:    700,
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
			if got, want := neighbors(ix, tc.q, tc.r), bruteNeighbors(tc.pts, tc.q, tc.r); !equalInts(got, want) {
				t.Errorf("neighbors = %v, brute = %v", got, want)
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
		if ix.cell != 1 {
			t.Errorf("New(%v) cell size = %g, want fallback 1", cell, ix.cell)
		}
		ix.Rebuild([]geom.Point{geom.Pt(2, 2), geom.Pt(2.5, 2)})
		if got := neighbors(ix, geom.Pt(2, 2), 1); len(got) != 2 {
			t.Errorf("New(%v) neighbors = %v, want both points", cell, got)
		}
	}
}

// decodePoints reads raw as little-endian float64 (x, y) pairs, at most limit
// points; a trailing partial pair is ignored.
func decodePoints(raw []byte, limit int) []geom.Point {
	var pts []geom.Point
	for ; len(raw) >= 16 && len(pts) < limit; raw = raw[16:] {
		pts = append(pts, geom.Pt(math.Float64frombits(binary.LittleEndian.Uint64(raw)),
			math.Float64frombits(binary.LittleEndian.Uint64(raw[8:]))))
	}
	return pts
}

// FuzzIndexPairs holds Pairs to the brute double loop, set and order, on
// fuzzed points (NaN, ±Inf and 1e7 m coordinates among the seeds), a fuzzed
// cell size and radius, after a Rebuild and after each of a few Updates:
// moves carries 17-byte records, a point index byte and its new (x, y).
// Pairs appends, so the test also checks that dst's prefix survives, and
// FilterWithin must cut Pairs at 2r down to the same list.
func FuzzIndexPairs(f *testing.F) {
	enc := func(coords ...float64) []byte {
		raw := make([]byte, 0, 8*len(coords))
		for _, c := range coords {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(c))
		}
		return raw
	}
	move := func(i byte, x, y float64) []byte { return append([]byte{i}, enc(x, y)...) }
	nan, inf, edge := math.NaN(), math.Inf(1), math.Nextafter(350, 400)
	f.Add([]byte{}, []byte{}, 10.0, 5.0)
	f.Add(enc(0, 0, 3, 4, 6, 8, 3, 4), move(1, 100, 100), 5.0, 5.0)
	f.Add(enc(-edge, 0, 350, 0, 0, -edge, 0, 350), []byte{}, 350.0, 700.0)
	f.Add(enc(1e7, -1e7, 1e7+300, -1e7+400, 1e7+0.5, -1e7, -1e7, 1e7), move(3, 1e7+1, -1e7+1), 700.0, 500.0)
	f.Add(enc(nan, 1, 2, nan, inf, 0, -inf, inf, 0, 0, 1e300, -1e300), append(move(4, inf, inf), move(0, 1, 1)...), 1.0, 1e300)
	f.Add(enc(0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5), append(move(5, 0.5, 0.5), move(2, 9e9, 0)...), 0.7, inf)
	f.Add(enc(0, 0, 1e200, 0, -1e200, 1), []byte{}, 1e199, 1e200) // r² and the squared distances overflow
	f.Fuzz(func(t *testing.T, raw, moves []byte, cell, r float64) {
		pts := decodePoints(raw, 64)
		ix := New(cell)
		ix.Rebuild(pts)
		check := func(when string) {
			t.Helper()
			sentinel := Pair{A: -1, B: -2}
			got, want := ix.Pairs([]Pair{sentinel}, r), brutePairs(pts, r)
			if got[0] != sentinel || !equalPairs(got[1:], want) {
				t.Fatalf("%s (cell %g, r %g, points %v): Pairs = %v, brute = %v", when, cell, r, pts, got, want)
			}
			if got := FilterWithin(nil, ix.Pairs(nil, 2*r), pts, r); !equalPairs(got, want) {
				t.Fatalf("%s (cell %g, r %g, points %v): FilterWithin of Pairs at 2r = %v, brute = %v", when, cell, r, pts, got, want)
			}
		}
		check("after Rebuild")
		for k := 0; len(moves) >= 17 && k < 8 && len(pts) > 0; k, moves = k+1, moves[17:] {
			i := int(moves[0]) % len(pts)
			pts[i] = decodePoints(moves[1:], 1)[0]
			ix.Update(i, pts[i])
			check(fmt.Sprintf("after Update(%d, %v)", i, pts[i]))
		}
	})
}

// BenchmarkPairs is the skin rebuild's spatial work: one Rebuild and one
// Pairs at r = 700 m (the engine's radio range plus its skin) on a
// uniform scatter at one point per 250 m × 250 m, the fleet-scan density.
func BenchmarkPairs(b *testing.B) {
	const spacing, r = 250.0, 700.0
	for _, n := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			rng := simrand.New(uint64(n))
			side := spacing * math.Sqrt(float64(n))
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Pt(rng.Uniform(0, side), rng.Uniform(0, side))
			}
			ix := New(r)
			var pairs []Pair
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Rebuild(pts)
				pairs = ix.Pairs(pairs[:0], r)
			}
			b.ReportMetric(float64(len(pairs)), "pairs")
		})
	}
}
