package spatial

import (
	"math"
	"slices"

	"lbchat/internal/geom"
)

// Index is a uniform-grid spatial index over a set of 2D points. Points are
// identified by their index in the slice passed to Rebuild; Update moves a
// single point without a full rebuild, which is how the world keeps the
// index exact while entities move one at a time inside a tick.
//
// Buckets live in one dense row-major array over the occupied cell box, so
// a query is slice arithmetic, not hashing; each bucket is a doubly linked
// list threaded through per-point arrays, so Update is an unlink and a push
// and never allocates. The box is laid out by Rebuild and re-laid out by an
// Update that leaves it; see layout for how its size stays bounded whatever
// the coordinates.
//
// The zero value is not usable; construct with New.
type Index struct {
	cell float64 // configured cell size
	eff  float64 // effective cell size of the current layout: cell × 2^k
	pts  []geom.Point

	// The occupied cell box: cols × rows buckets, row-major, whose first
	// bucket is cell (minCx, minCy). Cell coordinates are kept as float64 —
	// exact integers of magnitude ≤ maxCellCoord — so that clamping happens
	// before any integer conversion.
	minCx, minCy float64
	cols, rows   int
	heads        []int32 // per bucket: its first point, -1 when empty
	next, prev   []int32 // per point: its neighbors in its bucket's list, -1 at the ends
	slots        []int32 // per point: the bucket holding it

	// Pairs' scratch, reused across calls: the cell-sorted snapshot —
	// bucket b's points are sortedPts[start[b]:start[b+1]], with their ids
	// in sortedIDs — the b-major candidate buffer, and the per-A offsets of
	// the scatter that reorders it.
	start     []int32
	sortedPts []geom.Point
	sortedIDs []int32
	found     []candidate
	offA      []int32
}

// candidate is one (a, b) pair Pairs enumerated, a < b.
type candidate struct{ a, b int32 }

// New creates an index with the given cell size in meters. The cell size
// should be on the order of the dominant query radius: queries then visit
// at most a 3×3 cell neighborhood. Non-positive or non-finite sizes fall
// back to 1 m.
func New(cellSize float64) *Index {
	if !(cellSize > 0) || math.IsInf(cellSize, 1) {
		cellSize = 1
	}
	return &Index{cell: cellSize, eff: cellSize}
}

// Len returns the number of indexed points.
func (ix *Index) Len() int { return len(ix.pts) }

// maxCellCoord bounds cell coordinates so that they, their differences and
// their integer conversions are exact whatever the input.
const maxCellCoord = 1 << 50

// cellCoord returns the cell coordinate of x at cell size eff, clamped to
// ±maxCellCoord. It is non-decreasing in x, which is all a range query
// needs: a point whose coordinate lies in [lo, hi] has its cell coordinate
// in [cellCoord(lo), cellCoord(hi)]. NaN (a NaN coordinate, or ±Inf at an
// infinite cell size) stays NaN.
func cellCoord(x, eff float64) float64 {
	c := math.Floor(x / eff)
	if c > maxCellCoord {
		return maxCellCoord
	}
	if c < -maxCellCoord {
		return -maxCellCoord
	}
	return c
}

// axisOffset returns the offset of x's cell from the box origin on one
// axis, or -1 when the cell lies outside the n cells the box spans. A NaN
// coordinate is within range of nothing, so it is parked at offset 0.
func axisOffset(x, eff, minC float64, n int) int {
	o := cellCoord(x, eff) - minC
	if o >= 0 && o < float64(n) {
		return int(o)
	}
	if o != o {
		return 0
	}
	return -1
}

// axisRange returns the cell offsets [o0, o1] covering [lo, hi] on one
// axis, clamped to the n cells of the occupied box — in float64, before the
// integer conversion, so a huge or infinite bound clamps instead of
// overflowing. A NaN bound counts as unbounded. ok is false when the range
// misses the box.
func axisRange(lo, hi, eff, minC float64, n int) (o0, o1 int, ok bool) {
	c0 := cellCoord(lo, eff) - minC
	c1 := cellCoord(hi, eff) - minC
	last := float64(n - 1)
	if !(c0 > 0) {
		c0 = 0
	}
	if !(c1 < last) {
		c1 = last
	}
	return int(c0), int(c1), c0 <= c1
}

// boxSlack widens a query's bounding box by a relative 1e-12 of r. A point
// q the exact predicate accepts has |fl(q.X − p.X)| ≤ r, so its exact
// offset is at most r·(1 + 2⁻⁵²) — more than r when the difference rounded
// down, as it can for coordinates of opposite sign (p.X = −350 − ulp,
// q.X = 350, r = 700). A bound of p.X ± r·(1 + boxSlack) lies beyond any
// such q.X, and rounding the bound to a float cannot step past the float
// q.X, so q's cell is inside the box.
const boxSlack = 1e-12

// cellBox returns the bucket offsets [x0, x1] × [y0, y1] overlapping the
// bounding box of the disc (p, r), widened by boxSlack; ok is false when
// there are none.
func (ix *Index) cellBox(p geom.Point, r float64) (x0, x1, y0, y1 int, ok bool) {
	r *= 1 + boxSlack
	x0, x1, okX := axisRange(p.X-r, p.X+r, ix.eff, ix.minCx, ix.cols)
	y0, y1, okY := axisRange(p.Y-r, p.Y+r, ix.eff, ix.minCy, ix.rows)
	return x0, x1, y0, y1, okX && okY
}

// Rebuild re-indexes the given points, copying them into the index (the
// caller's slice is not retained). The bucket array, the list links and the
// point copy are reused across rebuilds, so a steady-state rebuild
// allocates nothing.
func (ix *Index) Rebuild(pts []geom.Point) {
	ix.pts = append(ix.pts[:0], pts...)
	ix.layout()
}

// layout sizes the bucket array to the box the current points occupy and
// files every point. Memory stays bounded for any extent: the effective
// cell size doubles until the box holds at most 8·n + 1024 buckets. A
// coarser cell only widens the candidate superset a query enumerates, and
// every query applies its exact predicate to the candidates.
func (ix *Index) layout() {
	n := len(ix.pts)
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range ix.pts { // comparisons, not math.Min: they skip NaN
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	// Empty or all-NaN axes collapse to the single cell at the origin.
	if !(minX <= maxX) {
		minX, maxX = 0, 0
	}
	if !(minY <= maxY) {
		minY, maxY = 0, 0
	}
	budget := float64(8*n + 1024)
	span := func(lo, hi, eff float64) (minC, cells float64) {
		minC, maxC := cellCoord(lo, eff), cellCoord(hi, eff)
		if minC != minC || maxC != maxC { // ±Inf at an infinite cell size
			return 0, 1
		}
		return minC, maxC - minC + 1
	}
	// Terminates: at eff = +Inf every coordinate is 0 or NaN, one cell.
	ix.eff = ix.cell
	var cols, rows float64
	for {
		ix.minCx, cols = span(minX, maxX, ix.eff)
		ix.minCy, rows = span(minY, maxY, ix.eff)
		if cols*rows <= budget {
			break
		}
		ix.eff *= 2
	}
	ix.cols, ix.rows = int(cols), int(rows)

	need := ix.cols * ix.rows
	if cap(ix.heads) < need {
		ix.heads = make([]int32, need)
	}
	ix.heads = ix.heads[:need]
	for b := range ix.heads {
		ix.heads[b] = -1
	}
	if cap(ix.slots) < n {
		ix.next, ix.prev, ix.slots = make([]int32, n), make([]int32, n), make([]int32, n)
	}
	ix.next, ix.prev, ix.slots = ix.next[:n], ix.prev[:n], ix.slots[:n]
	for i, p := range ix.pts {
		// Every point is inside the box by construction.
		ix.push(int32(i), int32(axisOffset(p.Y, ix.eff, ix.minCy, ix.rows)*ix.cols+axisOffset(p.X, ix.eff, ix.minCx, ix.cols)))
	}
}

// push files point i at the front of bucket slot.
func (ix *Index) push(i, slot int32) {
	head := ix.heads[slot]
	ix.next[i], ix.prev[i], ix.slots[i] = head, -1, slot
	if head >= 0 {
		ix.prev[head] = i
	}
	ix.heads[slot] = i
}

// Update moves point i to p, relocating it across buckets when needed. A
// move that leaves the occupied box lays the index out again over the
// points' current extent; a move inside it keeps the box, which can thus be
// wider than the extent — queries stay correct, at worst visiting a few
// extra empty cells until the next layout.
func (ix *Index) Update(i int, p geom.Point) {
	ix.pts[i] = p
	ox := axisOffset(p.X, ix.eff, ix.minCx, ix.cols)
	oy := axisOffset(p.Y, ix.eff, ix.minCy, ix.rows)
	if ox < 0 || oy < 0 {
		ix.layout()
		return
	}
	slot := int32(oy*ix.cols + ox)
	if slot == ix.slots[i] {
		return
	}
	before, after := ix.prev[i], ix.next[i]
	if before >= 0 {
		ix.next[before] = after
	} else {
		ix.heads[ix.slots[i]] = after
	}
	if after >= 0 {
		ix.prev[after] = before
	}
	ix.push(int32(i), slot)
}

// ForCandidates calls fn for every indexed point in the cells overlapping
// the axis-aligned bounding box of the disc (p, r) — a superset of the
// points within distance r of p. fn returning false stops the enumeration
// early. Visit order is unspecified (it depends on update history), so fn
// must compute an order-independent reduction — a min, an any, or an
// idempotent mark. No exact distance check is applied; callers apply their
// own predicate, which is what keeps index-backed queries bit-identical to
// the brute-force scans they replace.
func (ix *Index) ForCandidates(p geom.Point, r float64, fn func(i int, q geom.Point) bool) {
	if len(ix.pts) == 0 || r < 0 {
		return
	}
	x0, x1, y0, y1, ok := ix.cellBox(p, r)
	if !ok {
		return
	}
	for y := y0; y <= y1; y++ {
		for _, head := range ix.heads[y*ix.cols+x0 : y*ix.cols+x1+1] {
			for id := head; id >= 0; id = ix.next[id] {
				if !fn(int(id), ix.pts[id]) {
					return
				}
			}
		}
	}
}

// WithinBall reports whether q lies in the closed ball (p, r), returning
// exactly what the predicate `q.Dist(p) <= r` would; rr must be r*r. A
// squared-distance screen decides candidates whose squared distance is more
// than a relative margin away from r² — the margin (1e-12) is orders of
// magnitude above the combined rounding error of the three-operation square
// (≈3 ulp) and math.Hypot's documented 1-ulp bound, so the screen can never
// contradict the exact predicate. Only borderline candidates pay for the
// Hypot call, which keeps index-backed queries bit-identical to the
// brute-force scans they replace at a fraction of the cost. Pairs and
// internal/shard's scanner apply it.
func WithinBall(p, q geom.Point, r, rr float64) bool {
	dx, dy := q.X-p.X, q.Y-p.Y
	sq := dx*dx + dy*dy
	const margin = 1e-12
	if sq > rr*(1+margin) {
		return false
	}
	if sq < rr*(1-margin) {
		return true
	}
	return q.Dist(p) <= r
}

// screenBand is the relative band around r² of the screen Pairs and
// FilterWithin put in front of WithinBall: a squared distance more than
// rr·screenBand from rr is decided by sq < rr alone, which is what
// WithinBall's own screen, a thousand times narrower (1e-12), decides
// there. The rest — the band, and any NaN or infinite difference, which the
// negated comparison `!(|sq − rr| > band)` catches — goes to WithinBall.
// Both loops write every pair and advance a count by the verdict, so the
// out-of-range candidates cost no mispredicted branch; the one branch, into
// the band, is almost never taken.
const screenBand = 1e-9

// FilterWithin returns, in dst's storage and in their order, the members of
// pairs whose two points on pts lie within r of each other, by Pairs'
// predicate WithinBall(pts[A], pts[B], r, r²) behind its screen. On a
// superset of the in-range pairs in (A, B) order — the engine's Verlet skin
// list — the result is exactly what Pairs at r returns.
func FilterWithin(dst, pairs []Pair, pts []geom.Point, r float64) []Pair {
	dst = slices.Grow(dst[:0], len(pairs))[:len(pairs)]
	rr := r * r
	band := rr * screenBand
	n := 0
	for _, p := range pairs {
		a, b := pts[p.A], pts[p.B]
		dx, dy := b.X-a.X, b.Y-a.Y
		sq := dx*dx + dy*dy
		dst[n] = p
		hit := 0
		if sq < rr {
			hit = 1
		}
		if !(math.Abs(sq-rr) > band) {
			hit = 0
			if WithinBall(a, b, r, rr) {
				hit = 1
			}
		}
		n += hit
	}
	return dst[:n]
}

// Pair is an unordered point pair with A < B.
type Pair struct {
	A, B int
}

// Pairs appends to dst every pair of indexed points within distance r of
// each other (closed ball), in canonical ascending (A, B) order — exactly
// the enumeration order of the classic `for a { for b > a }` brute-force
// double loop, so replacing that loop with Pairs preserves downstream
// iteration order bit for bit.
//
// No comparison sort runs. A counting sort by bucket copies the points into
// a cell-sorted snapshot, ids ascending within each bucket. Each point b
// then walks the buckets of its own box, each one up to its first id not
// below b: every candidate (a, b) is written to a buffer and the count
// advances by the verdict WithinBall(pts[a], pts[b], r, r²) — the brute
// loop's predicate in its orientation, behind the screenBand screen. The
// buffer comes out b-major, and one stable counting scatter by a puts it in
// (A, B) order. The snapshot reads only the per-point buckets, so it is
// exact after Updates too.
func (ix *Index) Pairs(dst []Pair, r float64) []Pair {
	n := len(ix.pts)
	if n == 0 || r < 0 {
		return dst
	}
	ix.snapshot()
	rr := r * r
	band := rr * screenBand
	found, m := ix.found[:cap(ix.found)], 0
	for b, p := range ix.pts {
		x0, x1, y0, y1, ok := ix.cellBox(p, r)
		if !ok {
			continue
		}
		// A point writes fewer than n candidates.
		if len(found)-m < n {
			found = slices.Grow(found[:m], n)
			found = found[:cap(found)]
		}
		id := int32(b)
		for y := y0; y <= y1; y++ {
			for c := y*ix.cols + x0; c <= y*ix.cols+x1; c++ {
				for k := ix.start[c]; k < ix.start[c+1]; k++ {
					a := ix.sortedIDs[k]
					if a >= id {
						break
					}
					found[m] = candidate{a, id}
					q := ix.sortedPts[k]
					dx, dy := p.X-q.X, p.Y-q.Y
					sq := dx*dx + dy*dy
					hit := 0
					if sq < rr {
						hit = 1
					}
					if !(math.Abs(sq-rr) > band) { // see screenBand
						hit = 0
						if WithinBall(q, p, r, rr) {
							hit = 1
						}
					}
					m += hit
				}
			}
		}
	}
	ix.found = found
	return ix.scatterByA(dst, found[:m])
}

// snapshot counting-sorts the points by bucket into sortedPts and
// sortedIDs, bucket b's run starting at start[b]. Points are placed from
// the last down, each at the end of its bucket's remaining room, so ids
// ascend within a bucket.
func (ix *Index) snapshot() {
	n, nb := len(ix.pts), len(ix.heads)
	ix.start = slices.Grow(ix.start[:0], nb+1)[:nb+1]
	clear(ix.start)
	for _, s := range ix.slots {
		ix.start[s]++
	}
	var end int32
	for c, k := range ix.start[:nb] {
		end += k
		ix.start[c] = end
	}
	ix.start[nb] = end
	ix.sortedPts = slices.Grow(ix.sortedPts[:0], n)[:n]
	ix.sortedIDs = slices.Grow(ix.sortedIDs[:0], n)[:n]
	for i := n - 1; i >= 0; i-- {
		s := ix.slots[i]
		ix.start[s]--
		k := ix.start[s]
		ix.sortedPts[k], ix.sortedIDs[k] = ix.pts[i], int32(i)
	}
}

// scatterByA appends found, which is ordered by b, to dst ordered by a and
// then b: a stable counting scatter on a.
func (ix *Index) scatterByA(dst []Pair, found []candidate) []Pair {
	n := len(ix.pts)
	ix.offA = slices.Grow(ix.offA[:0], n)[:n]
	clear(ix.offA)
	for _, f := range found {
		ix.offA[f.a]++
	}
	var end int32
	for a, k := range ix.offA {
		ix.offA[a] = end
		end += k
	}
	base := len(dst)
	dst = slices.Grow(dst, len(found))[:base+len(found)]
	out := dst[base:]
	for _, f := range found {
		out[ix.offA[f.a]] = Pair{A: int(f.a), B: int(f.b)}
		ix.offA[f.a]++
	}
	return dst
}
