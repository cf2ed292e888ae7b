package repolint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestNoShadowedBuiltins is the repository-wide assertion: no Go file in
// the module may declare a name that shadows a predeclared identifier.
func TestNoShadowedBuiltins(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatalf("moduleRoot: %v", err)
	}
	findings, err := shadowedBuiltins(root)
	if err != nil {
		t.Fatalf("shadowedBuiltins: %v", err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestNoDirectCoresetBuilds is the repository-wide assertion: outside the
// coreset package no non-test code may call coreset.Build/BuildWith
// directly — coresets flow through Engine.EnsureCoreset so the partition
// tree applies.
func TestNoDirectCoresetBuilds(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatalf("moduleRoot: %v", err)
	}
	findings, err := directCoresetBuilds(root)
	if err != nil {
		t.Fatalf("directCoresetBuilds: %v", err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestDetectsDirectCoresetBuilds pins down the call forms the checker must
// catch, and the ones it must deliberately allow.
func TestDetectsDirectCoresetBuilds(t *testing.T) {
	src := `package p

import cs "lbchat/internal/coreset"

func bad1() { cs.Build(nil, nil, 10, nil) }                   // direct Build
func bad2() { cs.BuildWith(cs.MethodLayered, nil, nil, 10, nil) } // direct BuildWith
func ok1() { cs.FromDataset(nil) }                            // wrapping: allowed
func ok2() { cs.MergeReduce(nil, nil, 10, nil) }              // maintenance: allowed
func ok3() { cs.NewTree(cs.MethodLayered) }                   // tree: allowed
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := directCoresetBuilds(dir)
	if err != nil {
		t.Fatalf("directCoresetBuilds: %v", err)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(findings), strings.Join(findings, "\n"))
	}
	for _, f := range findings {
		if strings.Contains(f, "ok") {
			t.Errorf("allowed form wrongly flagged: %s", f)
		}
	}
}

// TestDirectCoresetBuildsExemptions: the coreset package itself, test
// files, the examples tree, and files that never import the package produce
// no findings; the engine's coreset_mgmt.go is checked like any other file.
func TestDirectCoresetBuildsExemptions(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	call := `import cs "lbchat/internal/coreset"

func f() { cs.Build(nil, nil, 10, nil) }
`
	write(filepath.Join("internal", "coreset", "x.go"), "package coreset\n\n"+call)
	write(filepath.Join("internal", "core", "x_test.go"), "package core\n\n"+call)
	write(filepath.Join("examples", "demo", "main.go"), "package main\n\n"+call)
	write("y.go", `package p

type coreset struct{}

func (coreset) Build() {}

func g() { var c coreset; c.Build() } // unrelated local type: allowed
`)
	findings, err := directCoresetBuilds(dir)
	if err != nil {
		t.Fatalf("directCoresetBuilds: %v", err)
	}
	if len(findings) != 0 {
		t.Errorf("unexpected findings:\n%s", strings.Join(findings, "\n"))
	}
	write(filepath.Join("internal", "core", "coreset_mgmt.go"), "package core\n\n"+call)
	if findings, err = directCoresetBuilds(dir); err != nil || len(findings) != 1 {
		t.Errorf("coreset_mgmt.go calling Build: %d findings (err %v), want 1", len(findings), err)
	}
}

// TestNoHotPathFleetScans is the repository-wide assertion: the engine's
// per-tick hot-path functions (trainTick, probeLossMean, recordLoss,
// calendarDue) may not range over the full Vehicles slice — due work comes
// from the calendar queue, so empty ticks stay O(1).
func TestNoHotPathFleetScans(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatalf("moduleRoot: %v", err)
	}
	findings, err := hotPathFleetScans(root)
	if err != nil {
		t.Fatalf("hotPathFleetScans: %v", err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestDetectsHotPathFleetScans pins down the loop forms the checker must
// catch inside hot-path functions, and the contexts it must deliberately
// allow.
func TestDetectsHotPathFleetScans(t *testing.T) {
	src := `package core

type engine struct{ Vehicles []int }

func (e *engine) trainTick() {
	for range e.Vehicles { // fleet scan in a hot path
	}
}

func (e *engine) probeLossMean() {
	for _, v := range e.Vehicles { // fleet scan in a hot path
		_ = v
	}
}

func (e *engine) calendarDue(due []int32) []int32 {
	for _, id := range due { // due-set iteration: allowed
		_ = id
	}
	return due
}

func (e *engine) FleetReceiveStats() {
	for range e.Vehicles { // end-of-run aggregation, not a hot path: allowed
	}
}
`
	dir := t.TempDir()
	coreDir := filepath.Join(dir, "internal", "core")
	if err := os.MkdirAll(coreDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(coreDir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := hotPathFleetScans(dir)
	if err != nil {
		t.Fatalf("hotPathFleetScans: %v", err)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(findings), strings.Join(findings, "\n"))
	}
	for _, f := range findings {
		if strings.Contains(f, "FleetReceiveStats") || strings.Contains(f, "calendarDue") {
			t.Errorf("allowed form wrongly flagged: %s", f)
		}
	}
}

// TestHotPathFleetScansExemptsTestsAndOutsideCore: test files inside
// internal/core and hot-named functions outside internal/core produce no
// findings.
func TestHotPathFleetScansExemptsTestsAndOutsideCore(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	scan := `type engine struct{ Vehicles []int }

func (e *engine) trainTick() {
	for range e.Vehicles {
	}
}
`
	write(filepath.Join("internal", "core", "x_test.go"), "package core\n\n"+scan)
	write(filepath.Join("internal", "other", "x.go"), "package other\n\n"+scan)
	findings, err := hotPathFleetScans(dir)
	if err != nil {
		t.Fatalf("hotPathFleetScans: %v", err)
	}
	if len(findings) != 0 {
		t.Errorf("unexpected findings:\n%s", strings.Join(findings, "\n"))
	}
}

// TestNoDiscardedInputGradient is the repository-wide assertion: outside
// internal/nn and tests, nobody calls Backward only to drop the input
// gradient it returns.
func TestNoDiscardedInputGradient(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatalf("moduleRoot: %v", err)
	}
	findings, err := discardedInputGradient(root)
	if err != nil {
		t.Fatalf("discardedInputGradient: %v", err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestDetectsDiscardedInputGradient pins down the statement form the checker
// must catch — the one Policy.TrainStep had — and the uses it must allow, as
// well as the internal/nn and _test.go exemptions.
func TestDetectsDiscardedInputGradient(t *testing.T) {
	src := `package model

func train(trunk, head layer, g *tensor) {
	trunk.Backward(g)                // dropped: flagged
	p.trunk.Backward(hiddenGrad)     // dropped through a field: flagged
	dHidden := head.Backward(g)      // kept: allowed
	scatter(head.Backward(g))        // consumed: allowed
	_ = dHidden
	trunk.BackwardParams(g)          // the replacement: allowed
	go trunk.Backward(g)             // not an expression statement: allowed
}
`
	dir := t.TempDir()
	write := func(rel string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(filepath.Join("internal", "model", "x.go"))
	write(filepath.Join("internal", "model", "x_test.go"))
	write(filepath.Join("internal", "nn", "x.go"))
	findings, err := discardedInputGradient(dir)
	if err != nil {
		t.Fatalf("discardedInputGradient: %v", err)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2:\n%s", len(findings), strings.Join(findings, "\n"))
	}
	for i, line := range []string{":4:", ":5:"} {
		want := filepath.Join("internal", "model", "x.go") + line
		if !strings.HasPrefix(findings[i], want) {
			t.Errorf("finding %d = %q, want prefix %q", i, findings[i], want)
		}
	}
}

// TestDetectsShadowingForms pins down the declaration sites the checker
// must catch, and the ones it must deliberately ignore.
func TestDetectsShadowingForms(t *testing.T) {
	src := `package p

func cap() {}                  // function name

func f(len int) (min int) {   // param and named result
	max := 1                   // short declaration
	var new int                // var spec
	const copy = 2             // const spec
	for clear := range []int{} { _ = clear } // range key
	g := func(delete string) {} // func literal param
	_ = g
	_, _, _ = max, new, copy
	return
}

type append struct{}           // type name

type ok struct {
	len int                    // struct field: must NOT be flagged
}

func (o ok) close() {}         // method name: must NOT be flagged
`
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "x.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := shadowedBuiltins(dir)
	if err != nil {
		t.Fatalf("shadowedBuiltins: %v", err)
	}
	want := []string{"cap", "len", "min", "max", "new", "copy", "clear", "delete", "append"}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(want), strings.Join(findings, "\n"))
	}
	for _, name := range want {
		hit := false
		for _, f := range findings {
			if strings.Contains(f, `"`+name+`"`) {
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("no finding for shadowed builtin %q in:\n%s", name, strings.Join(findings, "\n"))
		}
	}
	for _, f := range findings {
		if strings.Contains(f, `"close"`) || strings.Contains(f, `"ok"`) {
			t.Errorf("field/method name wrongly flagged: %s", f)
		}
	}
}

// TestNoUnlistedMetrics is the repository-wide assertion: every M* metric
// constant of internal/telemetry is returned by KnownMetrics().
func TestNoUnlistedMetrics(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatalf("moduleRoot: %v", err)
	}
	findings, err := unlistedMetrics(root)
	if err != nil {
		t.Fatalf("unlistedMetrics: %v", err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestDetectsUnlistedMetrics pins down what the checker must catch — a
// constant added to either const block without a KnownMetrics entry — and
// what it must leave alone.
func TestDetectsUnlistedMetrics(t *testing.T) {
	src := `package telemetry

const (
	MListed  = "a.listed"
	MMissing = "a.missing" // flagged
)

const MLate = "b.late" // a second block: flagged

const Magic = 7 // not M + upper case: not a metric name

var MVar = "not a constant"

func KnownMetrics() []string {
	return []string{MListed}
}

func other() []string { return []string{MMissing, MLate} } // listing elsewhere does not count
`
	dir := t.TempDir()
	telDir := filepath.Join(dir, "internal", "telemetry")
	if err := os.MkdirAll(telDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(telDir, "summary.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	findings, err := unlistedMetrics(dir)
	if err != nil {
		t.Fatalf("unlistedMetrics: %v", err)
	}
	if len(findings) != 2 || !strings.Contains(findings[0], "MMissing") || !strings.Contains(findings[1], "MLate") {
		t.Fatalf("want findings for MMissing and MLate, got %d:\n%s", len(findings), strings.Join(findings, "\n"))
	}
}

// codeSpan matches one inline code span of a markdown line; docRef a
// <pkg>.<Name> or <pkg>.<Type>.<Member> reference in it: a lower-case
// package name, then one or two exported identifiers.
var (
	codeSpan = regexp.MustCompile("`[^`]+`")
	docRef   = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
)

// deadDocRefs returns one "doc:line: ..." finding per reference in an inline
// code span of the given markdown files (fenced blocks are not read) whose
// package is a directory of root's internal/ but whose name no Go file there
// declares — test files included, since the docs cite their oracles.
// <pkg>.<Name> may be any top-level name, method or field of the package;
// <pkg>.<Type>.<Member> must be a method or field of Type.
func deadDocRefs(root string, docs ...string) ([]string, error) {
	pkgs := map[string]map[string]map[string]bool{}
	var findings []string
	for _, doc := range docs {
		src, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			return nil, err
		}
		fenced := false
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			}
			if fenced {
				continue
			}
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, m := range docRef.FindAllStringSubmatch(span, -1) {
					names, ok := pkgs[m[1]]
					if !ok {
						if names, err = declaredNames(filepath.Join(root, "internal", m[1])); err != nil {
							return nil, err
						}
						pkgs[m[1]] = names
					}
					if names != nil && !declares(names, m[2], m[3]) {
						findings = append(findings, fmt.Sprintf("%s:%d: %s names nothing internal/%s declares", doc, i+1, m[0], m[1]))
					}
				}
			}
		}
	}
	return findings, nil
}

// declares reports whether a package's names hold name — or, with member
// set, name's member.
func declares(names map[string]map[string]bool, name, member string) bool {
	if member != "" {
		return names[name][member]
	}
	for _, scope := range names {
		if scope[name] {
			return true
		}
	}
	return false
}

// declaredNames parses dir's Go files and returns its top-level names under
// the key "" and each type's methods and fields (embedded ones by their type
// name) under the type's name; nil when dir holds no Go file.
func declaredNames(dir string) (map[string]map[string]bool, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		return nil, err
	}
	names := map[string]map[string]bool{}
	add := func(scope string, id *ast.Ident) {
		if names[scope] == nil {
			names[scope] = map[string]bool{}
		}
		names[scope][id.Name] = true
	}
	// ident is the type name behind a receiver or an embedded field.
	ident := func(e ast.Expr) *ast.Ident {
		if star, ok := e.(*ast.StarExpr); ok {
			e = star.X
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			return sel.Sel
		}
		id, _ := e.(*ast.Ident)
		return id
	}
	fset := token.NewFileSet()
	for _, path := range paths {
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add("", d.Name)
				} else if recv := ident(d.Recv.List[0].Type); recv != nil {
					add(recv.Name, d.Name)
				}
				return false
			case *ast.ValueSpec:
				for _, id := range d.Names {
					add("", id)
				}
			case *ast.TypeSpec:
				add("", d.Name)
				var fields *ast.FieldList
				switch t := d.Type.(type) {
				case *ast.StructType:
					fields = t.Fields
				case *ast.InterfaceType:
					fields = t.Methods
				default:
					return false
				}
				for _, f := range fields.List {
					if len(f.Names) == 0 {
						if id := ident(f.Type); id != nil {
							add(d.Name.Name, id)
						}
					}
					for _, id := range f.Names {
						add(d.Name.Name, id)
					}
				}
				return false
			}
			return true
		})
	}
	return names, nil
}

// TestDocsNameLiveIdentifiers is the repository-wide assertion: every
// backticked <pkg>.<Name>[.<Member>] in the three top-level docs names
// something internal/<pkg> declares today, so no doc goes on describing a
// deleted field or option.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatalf("moduleRoot: %v", err)
	}
	findings, err := deadDocRefs(root, "DESIGN.md", "README.md", "EXPERIMENTS.md")
	if err != nil {
		t.Fatalf("deadDocRefs: %v", err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestDetectsDeadDocRefs pins down the references the checker must catch,
// and the ones it must leave alone.
func TestDetectsDeadDocRefs(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(filepath.Join("internal", "core", "x.go"), `package core

type Config struct{ Workers int }

func (c *Config) Validate() error { return nil }

const Limit = 3

type Source interface{ Advance(int) error }
`)
	write(filepath.Join("internal", "core", "x_test.go"), "package core\n\nfunc TestOracle() {}\n")
	write("DOC.md", "`core.Config`, `core.Config.Workers`, `core.Validate`, `core.Limit`, `core.Source.Advance`,\n"+
		"`core.TestOracle`, `e.Cfg.Gone` (no package), `cli.Gone` (not internal/), `core.chunk_loads`\n"+
		"`core.Config.Shards` and `core.Limit.Max` are dead; plain-text core.Gone is not in a span\n"+
		"```\n`core.Config.InCode`\n```\n"+
		"a span `f(core.Missing)` is read\n")
	findings, err := deadDocRefs(dir, "DOC.md")
	if err != nil {
		t.Fatalf("deadDocRefs: %v", err)
	}
	want := []string{"DOC.md:3: core.Config.Shards", "DOC.md:3: core.Limit.Max", "DOC.md:7: core.Missing"}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(want), strings.Join(findings, "\n"))
	}
	for i, w := range want {
		if !strings.HasPrefix(findings[i], w) {
			t.Errorf("finding %d = %q, want prefix %q", i, findings[i], w)
		}
	}
}

// TestNoFusedMultiplyAdd is the repository-wide assertion: no assembly file
// fuses a multiply into an add, and every amd64 kernel has its generic loop.
func TestNoFusedMultiplyAdd(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatalf("moduleRoot: %v", err)
	}
	findings, err := fusedMultiplyAdd(root)
	if err != nil {
		t.Fatalf("fusedMultiplyAdd: %v", err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestDetectsFusedMultiplyAdd pins down both halves of the rule: the
// mnemonics flagged in any .s file (and the comment that is not), and the
// TEXT symbols of a _amd64.s that must have a generic counterpart.
func TestDetectsFusedMultiplyAdd(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(filepath.Join("internal", "tensor", "k_amd64.s"), `TEXT ·madAVX2(SB), NOSPLIT, $0-32
	VFMADD231PD Y1, Y2, Y3  // flagged
	VMULPD      Y1, Y2, Y3  // not flagged, nor is naming VFMADD231PD here
	VFNMSUB132SD X1, X2, X3 // flagged
	RET
TEXT ·orphanAVX2(SB), NOSPLIT, $0-8 // flagged: no orphanGeneric
	RET
TEXT ·cpuid(SB), NOSPLIT, $0-24 // allowed without an oracle
	RET
`)
	write(filepath.Join("internal", "tensor", "k_generic.go"), "package tensor\n\nfunc madGeneric() {}\n")
	write(filepath.Join("internal", "tensor", "other.go"), "package tensor\n\nfunc orphanGeneric() {} // not a _generic.go\n")
	write(filepath.Join("internal", "nn", "k_arm64.s"), "TEXT ·anything(SB), NOSPLIT, $0-8\n\tVFMSUB213SD X1, X2, X3\n")
	findings, err := fusedMultiplyAdd(dir)
	if err != nil {
		t.Fatalf("fusedMultiplyAdd: %v", err)
	}
	amd64, arm64 := filepath.Join("internal", "tensor", "k_amd64.s"), filepath.Join("internal", "nn", "k_arm64.s")
	want := []string{arm64 + ":2: fused multiply-add VFMSUB213SD", amd64 + ":2: fused multiply-add VFMADD231PD",
		amd64 + ":4: fused multiply-add VFNMSUB132SD", amd64 + ":6: assembly routine orphanAVX2 has no func orphanGeneric"}
	if len(findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(findings), len(want), strings.Join(findings, "\n"))
	}
	for i, w := range want {
		if !strings.HasPrefix(findings[i], w) {
			t.Errorf("finding %d = %q, want prefix %q", i, findings[i], w)
		}
	}
}
