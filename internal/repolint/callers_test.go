package repolint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// productionCallerReasons lists the exported functions and methods that no
// non-test file calls and that stay anyway, each with the reason. Keys are
// "<pkg>.<Func>" or "<pkg>.<Type>.<Method>", <pkg> being the package's
// import path without the module path and without "internal/". An entry
// whose function is gone, or has gained a production caller, is a finding
// too, so the list only ever names what it has to.
var productionCallerReasons = map[string]string{
	"geom.Polyline.Points":        "test observation point: world's route tests compare lanes point by point",
	"coreset.Tree.Len":            "test observation point: core's coreset-tree tests check the tree's coverage",
	"coreset.Tree.DirtyLeaves":    "test observation point: core's coreset-tree tests check what a refresh rebuilds",
	"coreset.Coreset.TotalWeight": "test observation point: core's coreset tests check the weight a coreset carries",
	"experiments.Env.RunProtocol": "test observation point: the root benchmarks and the harness tests run one protocol without the run memo",
	"metrics.Table.Rows":          "test observation point: the root benchmarks and the catalogue tests read tables",
	"metrics.Table.Value":         "test observation point: the root benchmarks and the harness tests read table cells",
	"trace.FromRows":              "test fixture: core's oracle tests and benchmarks build traces from literal rows",
	"trace.ChunkError.Unwrap":     "errors.Is and errors.As reach it through an interface the standard library declares inside a function body, which the source importer does not type-check",
	"coreset.Tree.Invalidate":     "ROADMAP item 4's divergence trigger is its caller",
	"shard.Scanner.Grid":          "the shard package waits for ROADMAP item 13(b)",
	"shard.Scanner.Shards":        "the shard package waits for ROADMAP item 13(b)",
	"shard.Scanner.Stats":         "the shard package waits for ROADMAP item 13(b)",
	"shard.Fleet.Len":             "the shard package waits for ROADMAP item 13(b)",
}

// TestProductionCallers is the repository-wide assertion: every exported
// function and method of the module has a non-test caller, satisfies an
// interface, or is in productionCallerReasons.
func TestProductionCallers(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatalf("moduleRoot: %v", err)
	}
	res, err := productionCallers(root, productionCallerReasons)
	if err != nil {
		t.Fatalf("productionCallers: %v", err)
	}
	for _, f := range res.findings {
		t.Error(f)
	}
	t.Logf("%d exported identifiers (%d functions and methods) in %d lines of non-test Go (%d packages)",
		res.exported, res.funcs, res.lines, res.packages)
}

// TestDetectsProductionCallers pins down what the rule must flag in a module
// of its own, and what it must leave alone.
func TestDetectsProductionCallers(t *testing.T) {
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
	write("go.mod", "module fixture\n\ngo 1.22\n")
	write(filepath.Join("internal", "lib", "lib.go"), `package lib

// Runner is a module interface; T.Run satisfies it.
type Runner interface{ Run() int }

type T struct{ n int }

func (t T) Run() int       { return t.n }          // satisfies Runner: exempt
func (t T) String() string { return "t" }          // satisfies fmt.Stringer: exempt
func (t T) Used() int      { return t.n }          // called by main: fine
func (t T) Dead() int      { return t.Dead() + 1 } // only calls itself: flagged

func New() T       { return T{} } // called by main: fine
func Dead() int    { return 0 }   // flagged
func TestOnly() int { return 1 }  // called from a _test.go only: flagged
func Kept() int    { return 2 }   // allowlisted
func Called() int  { return 3 }   // allowlisted, but main calls it: flagged
func unexported()  {}             // not exported: not checked
`)
	write(filepath.Join("internal", "lib", "lib_test.go"), `package lib

import "testing"

func TestX(t *testing.T) { _ = TestOnly() }
`)
	write(filepath.Join("cmd", "app", "main.go"), `package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() {
	var r lib.Runner = lib.New()
	fmt.Println(r.Run() + lib.New().Used() + lib.Called())
}
`)
	reasons := map[string]string{"lib.Kept": "kept", "lib.Called": "stale", "lib.Gone": "stale"}
	res, err := productionCallers(dir, reasons)
	if err != nil {
		t.Fatalf("productionCallers: %v", err)
	}
	lib := filepath.Join("internal", "lib", "lib.go")
	want := []string{
		lib + ":11:12: lib.T.Dead",
		lib + ":14:6: lib.Dead",
		lib + ":15:6: lib.TestOnly",
		"productionCallerReasons: lib.Called has a non-test caller",
		"productionCallerReasons: lib.Gone names no exported function",
	}
	if len(res.findings) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(res.findings), len(want), strings.Join(res.findings, "\n"))
	}
	for i, w := range want {
		if !strings.HasPrefix(res.findings[i], w) {
			t.Errorf("finding %d = %q, want prefix %q", i, res.findings[i], w)
		}
	}
	if res.packages != 2 || res.funcs != 9 {
		t.Errorf("census: %d packages, %d functions and methods; want 2 and 9", res.packages, res.funcs)
	}
}

// callerResult is productionCallers' answer: its findings in the order the
// packages were loaded, then the allowlist's, sorted, and the census of what
// it loaded.
type callerResult struct {
	findings []string
	// exported counts exported package-level names plus exported methods;
	// funcs the exported functions and methods among them.
	exported, funcs int
	lines, packages int
}

// listedPackage is the part of `go list` the rule reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
}

// productionCallers type-checks the non-test files of every package of
// `go list ./...` under root (host build: GoFiles, so build-tagged variants
// do not collide) with go/types, the standard library coming from
// go/importer's source importer, and returns one "path:line:col: <key> ..."
// finding per exported function or method that no non-test file uses
// (a use inside its own body does not count), unless it implements a method
// of an interface declared in the module or the standard library, or
// reasons lists it. A reasons entry that names nothing exported, or that
// names something with a non-test use, is a finding as well.
func productionCallers(root string, reasons map[string]string) (callerResult, error) {
	var res callerResult
	listed, module, err := goList(root)
	if err != nil {
		return res, err
	}
	fset := token.NewFileSet()
	byPath := map[string]listedPackage{}
	for _, p := range listed {
		byPath[p.ImportPath] = p
	}
	l := &loader{
		fset:   fset,
		byPath: byPath,
		std:    importer.ForCompiler(fset, "source", nil),
		pkgs:   map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	for _, p := range listed {
		if _, err := l.load(p.ImportPath); err != nil {
			return res, err
		}
	}
	res.packages, res.lines = len(listed), l.lines

	for _, pkg := range l.pkgs {
		for _, name := range pkg.Scope().Names() {
			if token.IsExported(name) {
				res.exported++
			}
		}
	}

	// The exported functions and methods, with the extent of their bodies.
	type decl struct {
		fn       *types.Func
		key      string
		pos, end token.Pos
	}
	var decls []decl
	declOf := map[*types.Func]int{}
	byKey := map[string]int{}
	for _, file := range l.files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, _ := l.info.Defs[fd.Name].(*types.Func)
			if fn == nil || !fn.Exported() {
				continue
			}
			if fd.Recv != nil {
				res.exported++ // a method is in no package scope
			}
			key := callerKey(fn, module)
			declOf[fn], byKey[key] = len(decls), len(decls)
			decls = append(decls, decl{fn, key, fd.Pos(), fd.End()})
		}
	}
	res.funcs = len(decls)

	used := make([]bool, len(decls))
	for id, obj := range l.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		i, ok := declOf[fn.Origin()]
		if ok && (id.Pos() < decls[i].pos || id.Pos() >= decls[i].end) {
			used[i] = true
		}
	}

	ifaces := l.interfaces()
	for i, d := range decls {
		if _, listed := reasons[d.key]; listed || used[i] || implementsInterface(d.fn, ifaces) {
			continue
		}
		pos := fset.Position(d.fn.Pos())
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		res.findings = append(res.findings, fmt.Sprintf(
			"%s:%d:%d: %s has no non-test caller; delete it, or list it in productionCallerReasons with a reason",
			rel, pos.Line, pos.Column, d.key))
	}
	var stale []string
	for key := range reasons {
		switch i, ok := byKey[key]; {
		case !ok:
			stale = append(stale, fmt.Sprintf(
				"productionCallerReasons: %s names no exported function or method; delete its entry", key))
		case used[i]:
			stale = append(stale, fmt.Sprintf(
				"productionCallerReasons: %s has a non-test caller; delete its entry", key))
		}
	}
	sort.Strings(stale)
	res.findings = append(res.findings, stale...)
	return res, nil
}

// goList returns the packages of `go list ./...` under root and the module
// path.
func goList(root string) ([]listedPackage, string, error) {
	run := func(args ...string) ([]byte, error) {
		cmd := exec.Command("go", args...)
		cmd.Dir = root
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
		}
		return out, nil
	}
	mod, err := run("list", "-m")
	if err != nil {
		return nil, "", err
	}
	out, err := run("list", "-f", "{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \"\\t\"}}", "./...")
	if err != nil {
		return nil, "", err
	}
	var pkgs []listedPackage
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) > 2 && f[2] != "" { // a package of test files only has nothing to check
			pkgs = append(pkgs, listedPackage{ImportPath: f[0], Dir: f[1], GoFiles: f[2:]})
		}
	}
	return pkgs, strings.TrimSpace(string(mod)), nil
}

// loader type-checks the module's packages on demand, into one universe
// and one types.Info, and imports everything else from the standard library.
type loader struct {
	fset   *token.FileSet
	byPath map[string]listedPackage
	std    types.Importer
	pkgs   map[string]*types.Package // the module's, by import path
	info   *types.Info
	files  []*ast.File
	lines  int
}

// Import type-checks a package of the module once, or imports one of the
// standard library.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, ok := l.byPath[path]; ok {
		return l.load(path)
	}
	return l.std.Import(path)
}

// load parses and type-checks one of the module's packages once.
func (l *loader) load(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	l.pkgs[path] = nil
	p := l.byPath[path]
	var files []*ast.File
	for _, name := range p.GoFiles {
		src, err := os.ReadFile(filepath.Join(p.Dir, name))
		if err != nil {
			return nil, err
		}
		file, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), src, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, file)
		l.lines += bytes.Count(src, []byte("\n"))
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	l.pkgs[path] = pkg
	l.files = append(l.files, files...)
	return pkg, nil
}

// interfaces returns, by method name, every interface with methods that the
// module declares (named, or written out in a type expression) or that a
// standard-library package it reaches declares at package level, plus error.
func (l *loader) interfaces() map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(iface *types.Interface) {
		if !iface.IsMethodSet() {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, tv := range l.info.Types {
		if iface, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
			add(iface)
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(pkg *types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams() != nil {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				add(iface)
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range l.pkgs {
		walk(pkg)
	}
	return byName
}

// implementsInterface reports whether fn is a method through which its
// receiver type implements one of ifaces that has a method of fn's name.
func implementsInterface(fn *types.Func, ifaces map[string][]*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	for _, iface := range ifaces[fn.Name()] {
		if types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface) {
			return true
		}
	}
	return false
}

// callerKey names fn as productionCallerReasons does: <pkg>.<Func> or
// <pkg>.<Type>.<Method>.
func callerKey(fn *types.Func, module string) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), module+"/"), "internal/")
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		if named, ok := typ.(*types.Named); ok {
			return pkg + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + "." + fn.Name()
}
