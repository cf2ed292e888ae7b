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
	// descending records that every bucket list runs in descending point
	// order: layout files ascending points at the heads, so it holds after
	// every layout, and an Update that moves a point across buckets clears
	// it. While it holds, Pairs stops walking a bucket at its first point
	// not above the query's.
	descending bool

	scratch []int32
}

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

// CellSize returns the configured cell size in meters.
func (ix *Index) CellSize() float64 { return ix.cell }

// Len returns the number of indexed points.
func (ix *Index) Len() int { return len(ix.pts) }

// At returns indexed point i.
func (ix *Index) At(i int) geom.Point { return ix.pts[i] }

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

// cellBox returns the bucket offsets [x0, x1] × [y0, y1] overlapping the
// bounding box of the disc (p, r); ok is false when there are none.
func (ix *Index) cellBox(p geom.Point, r float64) (x0, x1, y0, y1 int, ok bool) {
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
	ix.descending = true
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
	ix.descending = false
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

// withinBall reports whether q lies in the closed ball (p, r), returning
// exactly what the predicate `q.Dist(p) <= r` would. A squared-distance
// screen decides candidates whose squared distance is more than a relative
// margin away from r² — the margin (1e-12) is orders of magnitude above the
// combined rounding error of the three-operation square (≈3 ulp) and
// math.Hypot's documented 1-ulp bound, so the screen can never contradict
// the exact predicate. Only borderline candidates pay for the Hypot call,
// which keeps index-backed queries bit-identical to the brute-force scans
// they replace at a fraction of the cost.
func withinBall(p, q geom.Point, r, rr float64) bool {
	return WithinBall(p, q, r, rr)
}

// WithinBall reports whether q lies in the closed ball (p, r); rr must be
// r*r. It is the exported form of the screened predicate, shared with
// internal/shard so its scanner applies the bit-identical in-range test.
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

// Neighbors returns the indices of all points within distance r of p
// (closed ball, the same `Dist(p) <= r` comparison a brute-force scan
// makes), in ascending index order. The returned slice is appended to dst,
// which may be nil.
func (ix *Index) Neighbors(dst []int, p geom.Point, r float64) []int {
	start := len(dst)
	rr := r * r
	ix.ForCandidates(p, r, func(i int, q geom.Point) bool {
		if withinBall(p, q, r, rr) {
			dst = append(dst, i)
		}
		return true
	})
	slices.Sort(dst[start:])
	return dst
}

// Pair is an unordered point pair with A < B.
type Pair struct {
	A, B int
}

// Pairs appends to dst every pair of indexed points within distance r of
// each other (closed ball), in canonical ascending (A, B) order — exactly
// the enumeration order of the classic `for a { for b > a }` brute-force
// double loop, so replacing that loop with Pairs preserves downstream
// iteration order bit for bit. While the bucket lists are in descending
// order (after any Rebuild, until an Update moves a point across buckets),
// each bucket walk stops at its first point not above a instead of
// filtering the rest.
func (ix *Index) Pairs(dst []Pair, r float64) []Pair {
	if len(ix.pts) == 0 || r < 0 {
		return dst
	}
	rr := r * r
	for a, p := range ix.pts {
		ix.scratch = ix.scratch[:0]
		x0, x1, y0, y1, ok := ix.cellBox(p, r)
		if !ok {
			continue
		}
		for y := y0; y <= y1; y++ {
			for _, head := range ix.heads[y*ix.cols+x0 : y*ix.cols+x1+1] {
				for id := head; id >= 0; id = ix.next[id] {
					if int(id) <= a {
						if ix.descending {
							break
						}
						continue
					}
					if withinBall(p, ix.pts[id], r, rr) {
						ix.scratch = append(ix.scratch, id)
					}
				}
			}
		}
		slices.Sort(ix.scratch)
		for _, b := range ix.scratch {
			dst = append(dst, Pair{A: a, B: int(b)})
		}
	}
	return dst
}
