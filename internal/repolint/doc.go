// Package repolint holds repository-wide static checks that run as plain
// go tests. Unlike external linters these need no module proxy access, so
// they gate CI even on offline boxes. The broad check walks every Go file
// and rejects declarations that shadow predeclared identifiers (cap, len,
// max, min, new, ...), which read as builtin calls at a glance and break
// them for the rest of the scope. Narrower checks guard single decisions:
// directCoresetBuilds, hotPathFleetScans, discardedInputGradient (a bare
// x.Backward(...) statement outside internal/nn computes an input gradient
// nobody reads), unlistedMetrics (every telemetry M* name must be in
// KnownMetrics()), fusedMultiplyAdd (no assembly file may fuse a multiply
// into an add, and every amd64 kernel has its generic Go loop beside it —
// DESIGN.md §15). Only this package's tests call them, so none is exported.
//
// Two more live in the tests alone. Every backticked <pkg>.<Name> in
// DESIGN.md, README.md and EXPERIMENTS.md must name something internal/<pkg>
// still declares. And TestProductionCallers type-checks every package of
// `go list ./...` with go/types (the standard library from go/importer) and
// fails on an exported function or method that no non-test file uses,
// unless it implements an interface the module or the standard library
// declares or productionCallerReasons lists it with its reason; an entry
// that names nothing, or something that has gained a caller, fails too
// (DESIGN.md §10).
package repolint
