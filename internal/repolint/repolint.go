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

// shadowedBuiltins parses every .go file under root and returns one
// "path:line:col: name" finding per declaration whose name shadows a
// predeclared identifier — anything in the types.Universe scope, which
// covers the builtin functions (append, cap, clear, copy, delete, len,
// make, max, min, new, ...), the predeclared types, and the constants
// true/false/iota/nil. Checked declaration sites: short variable
// declarations, range clauses, var/const specs, type names, function
// names, and func parameter/result/receiver lists. Struct fields and
// method names are not checked — they are selector-qualified and cannot
// shadow anything. The blank identifier is always allowed.
func shadowedBuiltins(root string) ([]string, error) {
	var findings []string
	err := walkGo(root, "", true, nil, func(fset *token.FileSet, rel string, file *ast.File) {
		checkFile(fset, rel, file, &findings)
	})
	return findings, err
}

// walkFiles calls visit for every file under root/sub (sub "" for root
// itself) whose name ends in ext, with its path and its path relative to
// root, in lexical order. It never enters testdata or dot directories, nor
// one skipDir (when non-nil) reports true for by root-relative path and
// name.
func walkFiles(root, sub, ext string, skipDir func(rel, name string) bool, visit func(path, rel string) error) error {
	return filepath.WalkDir(filepath.Join(root, sub), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, relErr := filepath.Rel(root, path)
		if relErr != nil {
			rel = path
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || skipDir != nil && skipDir(rel, name) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ext) {
			return nil
		}
		return visit(path, rel)
	})
}

// walkGo parses every .go file walkFiles finds under root/sub — _test.go
// files only when tests is set — and hands each to check.
func walkGo(root, sub string, tests bool, skipDir func(rel, name string) bool, check func(fset *token.FileSet, rel string, file *ast.File)) error {
	fset := token.NewFileSet()
	return walkFiles(root, sub, ".go", skipDir, func(path, rel string) error {
		if !tests && strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		check(fset, rel, file)
		return nil
	})
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

// directCoresetBuilds parses every .go file under root and returns one
// "path:line:col: ..." finding per call to coreset.Build or
// coreset.BuildWith outside the coreset package. Coresets must be built
// through the engine's EnsureCoreset (internal/core/coreset_mgmt.go), which
// routes every refresh through the partition tree — a direct Build call
// bypasses the incremental cache and the telemetry side channel. Exempt:
// the coreset package itself, test files, and the examples tree
// (pedagogical standalone programs).
func directCoresetBuilds(root string) ([]string, error) {
	var findings []string
	coresetPkgDir := filepath.Join("internal", "coreset")
	skip := func(rel, name string) bool { return name == "examples" || rel == coresetPkgDir }
	err := walkGo(root, "", false, skip, func(fset *token.FileSet, rel string, file *ast.File) {
		checkCoresetBuilds(fset, rel, file, &findings)
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
			"%s:%d:%d: direct %s.%s call; build coresets through Engine.EnsureCoreset so the partition tree and the vehicle's coreset budget apply",
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

// hotPathFleetScans parses every non-test .go file under root's
// internal/core and returns one "path:line:col: ..." finding per
// `for ... range e.Vehicles` loop inside a per-tick hot-path function
// (hotPathFuncs). The calendar queue exists precisely so empty ticks cost
// O(1) and due ticks cost O(due); a fleet-sized range in one of these
// functions silently reverts the engine to the O(N)-per-tick regime the
// scheduler replaced (DESIGN.md §14). Everything outside the hot set —
// construction, end-of-run aggregation, the encounter scan's own spatial
// index — is exempt, as are _test.go files (where the scan oracle lives).
func hotPathFleetScans(root string) ([]string, error) {
	var findings []string
	err := walkGo(root, filepath.Join("internal", "core"), false, nil, func(fset *token.FileSet, rel string, file *ast.File) {
		checkHotPathScans(fset, rel, file, &findings)
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

// discardedInputGradient parses every non-test .go file under root outside
// internal/nn and returns one "path:line:col: ..." finding per expression
// statement that is a bare x.Backward(...) call. nn.Dense.Backward returns
// dLoss/dInput; a caller that drops it made the layer compute a gradient
// nobody reads — for a network's first layer the widest product of the whole
// backward pass — and wants nn.Dense.BackwardParams instead (DESIGN.md §15).
// The check is syntactic: it keys on the method name, not the receiver's
// type. internal/nn itself and _test.go files are exempt.
func discardedInputGradient(root string) ([]string, error) {
	var findings []string
	nnPkgDir := filepath.Join("internal", "nn")
	skip := func(rel, _ string) bool { return rel == nnPkgDir }
	err := walkGo(root, "", false, skip, func(fset *token.FileSet, rel string, file *ast.File) {
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
	})
	return findings, err
}

// unlistedMetrics parses root's internal/telemetry/summary.go and returns
// one "path:line:col: ..." finding per package-level M* constant (M, then an
// upper-case letter) that KnownMetrics() does not return. The constants and
// the list are maintained by hand, and cmd/telemetry-lint -summary — which
// validates CSV dumps against the list — only notices a missing name when a
// run happens to emit it. The check is syntactic: a constant counts as
// listed when its identifier appears anywhere in KnownMetrics' body.
func unlistedMetrics(root string) ([]string, error) {
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

// fusedMultiplyAdd reads every .s file under root and returns one
// "path:line: ..." finding per fused multiply-add instruction (comments are
// not searched) and, in a *_amd64.s, per TEXT symbol that has no oracle: for
// ·nameAVX2 (or ·name) a func nameGeneric in a *_generic.go of the same
// directory, unless the symbol is in asmWithoutOracle. A fused multiply-add
// rounds once where the Go loops round twice, so one such instruction moves
// the float bits every golden pins (DESIGN.md §15); and a kernel without its
// generic loop has nothing to be tested against and nothing to run where the
// assembly does not.
func fusedMultiplyAdd(root string) ([]string, error) {
	var findings []string
	err := walkFiles(root, "", ".s", nil, func(path, rel string) error {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
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

// moduleRoot walks upward from dir to the enclosing go.mod directory.
func moduleRoot(dir string) (string, error) {
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
