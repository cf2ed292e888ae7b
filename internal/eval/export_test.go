package eval

// RouteProgress exposes routeProgress to the external golden test.
var RouteProgress = routeProgress
