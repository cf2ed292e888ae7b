// Package spatial provides a deterministic uniform-grid index over 2D
// points, the fast path behind every proximity query in the simulator:
// radio-range pair enumeration in the engine, lead-vehicle / pedestrian /
// intersection / collision queries in the world, and ego-window entity
// culling for BEV rasterization.
//
// The index buckets points into square cells of a fixed size chosen from
// the dominant query radius (radio range for the engine, the driving-cone
// bound for the world), held in one dense array over the occupied cell box.
// A query for radius r visits only the cells overlapping the query disc's
// bounding box — clamped to that box, so a radius larger than the whole map
// degrades to a full scan, never to an empty-cell sweep. Whatever the
// coordinates, the array holds at most 8·n + 1024 buckets: an extent too
// wide for that is indexed at a coarser effective cell size, which widens
// the candidate sets but not the results.
//
// Determinism is part of the contract, not an accident: Neighbors and
// Pairs return candidates in canonical ID-ascending order, and every
// candidate is confirmed with the exact same geom.Point.Dist comparison a
// brute-force scan would use. Replacing an O(N²) scan with the index
// therefore changes neither the result set nor its order — sim output
// stays bit-identical at any worker count (see the property and A/B
// determinism tests). ForCandidates trades the canonical order for
// zero-allocation enumeration; it is only suitable for order-independent
// reductions (any/min), which is what the world queries are.
//
// The index is not safe for concurrent mutation; the simulator rebuilds
// or updates it from the single-threaded tick loop only.
package spatial
