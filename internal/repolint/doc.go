// Package repolint holds repository-wide static checks that run as plain
// go tests. Unlike external linters these need no module proxy access, so
// they gate CI even on offline boxes. The current checks walk every Go
// file and reject (1) declarations that shadow predeclared identifiers
// (cap, len, max, min, new, ...), which read as builtin calls at a glance
// and break them for the rest of the scope, and (2) function parameters
// typed with the concrete trace.Trace or trace.Window outside the trace
// package — consumers must accept trace.Source so resident and streamed
// mobility sources stay interchangeable (DESIGN.md §12). Narrower checks
// guard single decisions: DirectCoresetBuilds, HotPathFleetScans,
// DiscardedInputGradient (a bare x.Backward(...) statement outside
// internal/nn computes an input gradient nobody reads), UnlistedMetrics
// (every telemetry M* name must be in KnownMetrics()), FusedMultiplyAdd
// (no assembly file may fuse a multiply into an add, and every amd64 kernel
// has its generic Go loop beside it — DESIGN.md §15). One more lives in the
// tests alone: every backticked <pkg>.<Name> in DESIGN.md, README.md and
// EXPERIMENTS.md must name something internal/<pkg> still declares.
package repolint
