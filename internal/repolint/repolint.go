package repolint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// ShadowedBuiltins parses every .go file under root and returns one
// "path:line:col: name" finding per declaration whose name shadows a
// predeclared identifier — anything in the types.Universe scope, which
// covers the builtin functions (append, cap, clear, copy, delete, len,
// make, max, min, new, ...), the predeclared types, and the constants
// true/false/iota/nil. Checked declaration sites: short variable
// declarations, range clauses, var/const specs, type names, function
// names, and func parameter/result/receiver lists. Struct fields and
// method names are not checked — they are selector-qualified and cannot
// shadow anything. The blank identifier is always allowed.
func ShadowedBuiltins(root string) ([]string, error) {
	var findings []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		rel, relErr := filepath.Rel(root, path)
		if relErr != nil {
			rel = path
		}
		checkFile(fset, rel, file, &findings)
		return nil
	})
	return findings, err
}

// checkFile appends a finding for each shadowing declaration in one file.
func checkFile(fset *token.FileSet, path string, file *ast.File, findings *[]string) {
	flag := func(id *ast.Ident) {
		if id == nil || id.Name == "_" {
			return
		}
		if types.Universe.Lookup(id.Name) == nil {
			return
		}
		pos := fset.Position(id.Pos())
		*findings = append(*findings,
			fmt.Sprintf("%s:%d:%d: declaration shadows builtin %q", path, pos.Line, pos.Column, id.Name))
	}
	flagFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				flag(name)
			}
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						flag(id)
					}
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				if id, ok := n.Key.(*ast.Ident); ok {
					flag(id)
				}
				if id, ok := n.Value.(*ast.Ident); ok {
					flag(id)
				}
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				flag(name)
			}
		case *ast.TypeSpec:
			flag(n.Name)
			flagFields(n.TypeParams)
		case *ast.FuncDecl:
			if n.Recv == nil {
				// Method names are selector-qualified; only plain
				// functions can shadow a builtin at the call site.
				flag(n.Name)
			}
			flagFields(n.Recv)
		case *ast.FuncType:
			// Covers both declarations and literals: FuncDecl.Type and
			// FuncLit.Type are visited here.
			flagFields(n.TypeParams)
			flagFields(n.Params)
			flagFields(n.Results)
		}
		return true
	})
}

// ConcreteTraceParams parses every .go file under root and returns one
// "path:line:col: ..." finding per function parameter declared with a
// concrete mobility-source type — trace.Trace or trace.Window, with any
// number of pointer indirections — outside the trace package itself.
// Consumers must accept the trace.Source interface (or trace.Windowed for
// window-specific capabilities) so both the resident trace and the bounded
// sliding window satisfy them; a concrete parameter type quietly pins a
// call path to one implementation and breaks the streamed/resident A/B
// guarantee. Returning a concrete type is fine — constructors do — and the
// trace package's own internals are exempt.
func ConcreteTraceParams(root string) ([]string, error) {
	var findings []string
	fset := token.NewFileSet()
	tracePkgDir := filepath.Join("internal", "trace")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		rel, relErr := filepath.Rel(root, path)
		if relErr != nil {
			rel = path
		}
		if strings.HasPrefix(rel, tracePkgDir+string(filepath.Separator)) {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		checkTraceParams(fset, rel, file, &findings)
		return nil
	})
	return findings, err
}

// checkTraceParams appends a finding for each concrete-trace parameter in
// one file. It resolves the file's local name for the trace import (usually
// "trace", but aliases count too) and then flags parameters of that
// package's Trace and Window types in every function signature — top-level
// declarations, methods, function literals, func-typed fields, and
// interface methods all share *ast.FuncType and are visited alike.
func checkTraceParams(fset *token.FileSet, path string, file *ast.File, findings *[]string) {
	local := ""
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) != "lbchat/internal/trace" {
			continue
		}
		local = "trace"
		if imp.Name != nil {
			local = imp.Name.Name
		}
	}
	if local == "" || local == "." || local == "_" {
		return
	}
	concrete := func(expr ast.Expr) string {
		for {
			star, ok := expr.(*ast.StarExpr)
			if !ok {
				break
			}
			expr = star.X
		}
		sel, ok := expr.(*ast.SelectorExpr)
		if !ok {
			return ""
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != local {
			return ""
		}
		if sel.Sel.Name == "Trace" || sel.Sel.Name == "Window" {
			return local + "." + sel.Sel.Name
		}
		return ""
	}
	ast.Inspect(file, func(n ast.Node) bool {
		ft, ok := n.(*ast.FuncType)
		if !ok || ft.Params == nil {
			return true
		}
		for _, f := range ft.Params.List {
			name := concrete(f.Type)
			if name == "" {
				continue
			}
			pos := fset.Position(f.Type.Pos())
			*findings = append(*findings, fmt.Sprintf(
				"%s:%d:%d: parameter typed with concrete %s; accept trace.Source (or trace.Windowed) instead",
				path, pos.Line, pos.Column, name))
		}
		return true
	})
}

// DirectCoresetBuilds parses every .go file under root and returns one
// "path:line:col: ..." finding per call to coreset.Build or
// coreset.BuildWith outside the coreset package. Coresets must be built
// through the engine's EnsureCoreset (internal/core/coreset_mgmt.go), which
// routes every refresh through the partition tree — a direct Build call
// bypasses the incremental cache and the telemetry side channel. Exempt:
// the coreset package itself, test files, and the examples tree
// (pedagogical standalone programs).
func DirectCoresetBuilds(root string) ([]string, error) {
	var findings []string
	fset := token.NewFileSet()
	coresetPkgDir := filepath.Join("internal", "coreset")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == "examples" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, relErr := filepath.Rel(root, path)
		if relErr != nil {
			rel = path
		}
		if strings.HasPrefix(rel, coresetPkgDir+string(filepath.Separator)) {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		checkCoresetBuilds(fset, rel, file, &findings)
		return nil
	})
	return findings, err
}

// checkCoresetBuilds appends a finding for each direct coreset-construction
// call in one file. It resolves the file's local name for the coreset import
// (aliases count too) and flags calls to that package's Build and BuildWith.
func checkCoresetBuilds(fset *token.FileSet, path string, file *ast.File, findings *[]string) {
	local := ""
	for _, imp := range file.Imports {
		if strings.Trim(imp.Path.Value, `"`) != "lbchat/internal/coreset" {
			continue
		}
		local = "coreset"
		if imp.Name != nil {
			local = imp.Name.Name
		}
	}
	if local == "" || local == "." || local == "_" {
		return
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != local {
			return true
		}
		if sel.Sel.Name != "Build" && sel.Sel.Name != "BuildWith" {
			return true
		}
		pos := fset.Position(call.Pos())
		*findings = append(*findings, fmt.Sprintf(
			"%s:%d:%d: direct %s.%s call; build coresets through Engine.EnsureCoreset so the partition tree and arm flag apply",
			path, pos.Line, pos.Column, local, sel.Sel.Name))
		return true
	})
}

// hotPathFuncs are the engine's per-tick hot-path functions: the ones that
// run every tick (or every probe) and therefore must scale with the due
// working set, never with fleet size.
var hotPathFuncs = map[string]bool{
	"trainTick":     true,
	"probeLossMean": true,
	"recordLoss":    true,
	"calendarDue":   true,
}

// HotPathFleetScans parses every non-test .go file under root's
// internal/core and returns one "path:line:col: ..." finding per
// `for ... range e.Vehicles` loop inside a per-tick hot-path function
// (hotPathFuncs). The calendar queue exists precisely so empty ticks cost
// O(1) and due ticks cost O(due); a fleet-sized range in one of these
// functions silently reverts the engine to the O(N)-per-tick regime the
// scheduler replaced (DESIGN.md §14). Everything outside the hot set —
// construction, end-of-run aggregation, the encounter scan's own spatial
// index — is exempt, as are _test.go files (where the scan oracle lives).
func HotPathFleetScans(root string) ([]string, error) {
	var findings []string
	fset := token.NewFileSet()
	coreDir := filepath.Join(root, "internal", "core")
	err := filepath.WalkDir(coreDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		rel, relErr := filepath.Rel(root, path)
		if relErr != nil {
			rel = path
		}
		checkHotPathScans(fset, rel, file, &findings)
		return nil
	})
	return findings, err
}

// checkHotPathScans appends a finding for each fleet-sized range statement
// inside a hot-path function in one file. It flags `range X.Vehicles` for
// any receiver X — the selector, not the receiver name, is the signature of
// a fleet scan.
func checkHotPathScans(fset *token.FileSet, path string, file *ast.File, findings *[]string) {
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil || !hotPathFuncs[fn.Name.Name] {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			sel, ok := rng.X.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Vehicles" {
				return true
			}
			pos := fset.Position(rng.Pos())
			*findings = append(*findings, fmt.Sprintf(
				"%s:%d:%d: fleet-sized range over Vehicles in per-tick hot path %s; use the calendar queue's due set instead",
				path, pos.Line, pos.Column, fn.Name.Name))
			return true
		})
	}
}

// DiscardedInputGradient parses every non-test .go file under root outside
// internal/nn and returns one "path:line:col: ..." finding per expression
// statement that is a bare x.Backward(...) call. Layer.Backward returns
// dLoss/dInput; a caller that drops it made the layer compute a gradient
// nobody reads — for a network's first layer the widest product of the whole
// backward pass — and wants Layer.BackwardParams instead (DESIGN.md §15).
// The check is syntactic: it keys on the method name, not the receiver's
// type. internal/nn itself (containers chain Backward calls) and _test.go
// files are exempt.
func DiscardedInputGradient(root string) ([]string, error) {
	var findings []string
	fset := token.NewFileSet()
	nnPkgDir := filepath.Join("internal", "nn")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, relErr := filepath.Rel(root, path)
		if relErr != nil {
			rel = path
		}
		if strings.HasPrefix(rel, nnPkgDir+string(filepath.Separator)) {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Backward" {
				return true
			}
			pos := fset.Position(call.Pos())
			findings = append(findings, fmt.Sprintf(
				"%s:%d:%d: Backward's input gradient is discarded; call BackwardParams so it is not computed",
				rel, pos.Line, pos.Column))
			return true
		})
		return nil
	})
	return findings, err
}

// UnlistedMetrics parses root's internal/telemetry/summary.go and returns
// one "path:line:col: ..." finding per package-level M* constant (M, then an
// upper-case letter) that KnownMetrics() does not return. The constants and
// the list are maintained by hand, and cmd/telemetry-lint -summary — which
// validates CSV dumps against the list — only notices a missing name when a
// run happens to emit it. The check is syntactic: a constant counts as
// listed when its identifier appears anywhere in KnownMetrics' body.
func UnlistedMetrics(root string) ([]string, error) {
	rel := filepath.Join("internal", "telemetry", "summary.go")
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filepath.Join(root, rel), nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", rel, err)
	}
	listed := map[string]bool{}
	var metrics []*ast.Ident
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.Name == "KnownMetrics" && d.Body != nil {
				ast.Inspect(d.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						listed[id.Name] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			if d.Tok != token.CONST {
				continue
			}
			for _, spec := range d.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if n := name.Name; len(n) > 1 && n[0] == 'M' && 'A' <= n[1] && n[1] <= 'Z' {
						metrics = append(metrics, name)
					}
				}
			}
		}
	}
	var findings []string
	for _, name := range metrics {
		if !listed[name.Name] {
			pos := fset.Position(name.Pos())
			findings = append(findings, fmt.Sprintf(
				"%s:%d:%d: metric constant %s is not returned by KnownMetrics(); telemetry-lint -summary would reject a run that emits it",
				rel, pos.Line, pos.Column, name.Name))
		}
	}
	return findings, nil
}

// fusedMnemonic matches the x86 fused multiply-add family with any form and
// type suffix (VFMADD231PD, VFNMSUB132SD, VFMADDSUB213PS, ...).
var fusedMnemonic = regexp.MustCompile(`\bVFN?M(ADD|SUB)[0-9A-Z]*\b`)

// asmText matches the symbol a Go assembly TEXT directive defines.
var asmText = regexp.MustCompile(`^\s*TEXT\s+·(\w+)`)

// asmWithoutOracle lists the assembly routines that need no generic
// counterpart because they do no arithmetic: the feature-detection stubs
// behind tensor's useAVX2.
var asmWithoutOracle = map[string]bool{"cpuid": true, "xgetbv": true}

// FusedMultiplyAdd reads every .s file under root and returns one
// "path:line: ..." finding per fused multiply-add instruction (comments are
// not searched) and, in a *_amd64.s, per TEXT symbol that has no oracle: for
// ·nameAVX2 (or ·name) a func nameGeneric in a *_generic.go of the same
// directory, unless the symbol is in asmWithoutOracle. A fused multiply-add
// rounds once where the Go loops round twice, so one such instruction moves
// the float bits every golden pins (DESIGN.md §15); and a kernel without its
// generic loop has nothing to be tested against and nothing to run where the
// assembly does not.
func FusedMultiplyAdd(root string) ([]string, error) {
	var findings []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".s") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, relErr := filepath.Rel(root, path)
		if relErr != nil {
			rel = path
		}
		var generics map[string]bool
		if strings.HasSuffix(path, "_amd64.s") {
			if generics, err = genericFuncs(filepath.Dir(path)); err != nil {
				return err
			}
		}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if m := fusedMnemonic.FindString(code); m != "" {
				findings = append(findings, fmt.Sprintf(
					"%s:%d: fused multiply-add %s rounds once where the generic loop rounds twice; use separate multiply and add",
					rel, i+1, m))
			}
			if m := asmText.FindStringSubmatch(code); m != nil && generics != nil {
				want := strings.TrimSuffix(m[1], "AVX2") + "Generic"
				if !generics[want] && !asmWithoutOracle[m[1]] {
					findings = append(findings, fmt.Sprintf(
						"%s:%d: assembly routine %s has no func %s in a _generic.go beside it",
						rel, i+1, m[1], want))
				}
			}
		}
		return nil
	})
	return findings, err
}

// genericFuncs returns the names of the plain functions declared in dir's
// *_generic.go files.
func genericFuncs(dir string) (map[string]bool, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*_generic.go"))
	if err != nil {
		return nil, err
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range paths {
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", path, err)
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names[fn.Name.Name] = true
			}
		}
	}
	return names, nil
}

// ModuleRoot walks upward from dir to the enclosing go.mod directory.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
