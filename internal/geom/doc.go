// Package geom provides the 2D geometry primitives used by the driving-world
// simulator: points, segments, polylines with arc-length parameterization,
// and ego-frame transforms for bird's-eye-view rasterization.
//
// Polyline is the workhorse: routes, lanes, and vehicle paths are all
// polylines, and arc-length parameterization (PointAt, length-preserving
// resampling) is what places vehicles along them for the trace layer to
// record. Contact durations are read from that recorded trace, not from the
// routes (ROADMAP item 21).
package geom
