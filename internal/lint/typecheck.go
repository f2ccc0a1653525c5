package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the typed half of the engine: it type-checks the whole
// module from the already-parsed ASTs, using only the standard library.
//
// In-repo imports are resolved by a source-based importer that recurses
// through the parsed packages in dependency order (a DFS with an
// in-progress set, so import cycles are reported as errors rather than
// hanging or panicking). Standard-library imports are delegated to the
// stdlib's own source importer (importer.ForCompiler "source"), which
// type-checks GOROOT source and therefore works on toolchains that no
// longer ship pre-built export data; cgo is disabled for that context so
// packages like net fall back to their pure-Go variants.
//
// Every package shares one types.Info. The maps are keyed by AST node, so
// a single Info can absorb any number of types.Check calls without
// collisions, and analyzers can resolve any expression they encounter
// through Package.TypesInfo regardless of which checking unit produced it.
//
// Each directory is checked as up to three units:
//
//  1. the import view — non-test files only, cached and returned to
//     importing packages (keeps test-only imports out of the import graph,
//     where they could manufacture cycles that `go build` never sees);
//  2. the augmented unit — non-test plus in-package _test.go files, so
//     analyzers get type information for in-package tests too;
//  3. the external test unit — package foo_test files, checked as their
//     own package importing the base.
//
// Units 2 and 3 re-resolve their files into the shared Info; analyzers
// must therefore match types by (package path, name), never by object
// identity, since a declaration in a non-test file is re-checked by the
// augmented unit under a fresh types.Object.
//
// A unit that fails to type-check is reported (as "typecheck" diagnostics
// on the owning package) and analysis continues with whatever partial
// type information the checker produced: a broken package must surface as
// findings, not abort the run.

// typeChecker resolves and caches the module's type-checked packages.
type typeChecker struct {
	fset    *token.FileSet
	module  string
	byPath  map[string]*Package
	std     types.Importer
	done    map[string]*types.Package
	loading map[string]bool
	stack   []string
	info    *types.Info
	seen    map[string]bool // dedupe key for recorded type errors
}

// newInfo allocates a types.Info with every map live, shared by all units.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// ImportPath returns the import path the package type-checks under.
func (p *Package) ImportPath() string {
	if p.Dir == "" {
		return p.Module
	}
	return p.Module + "/" + p.Dir
}

// TypeCheck type-checks every package, populating Package.TypesPkg,
// Package.TypesInfo and Package.TypeErrors in place. It never fails: a
// package that cannot be type-checked (syntax survivors, import cycles,
// type errors, missing imports) carries the problems in TypeErrors and
// whatever partial type information the checker managed to produce.
func TypeCheck(pkgs []*Package) {
	if len(pkgs) == 0 {
		return
	}
	module := pkgs[0].Module
	if module == "" {
		module = DefaultModule
	}
	// All packages share the loader's FileSet.
	tc := &typeChecker{
		fset:    pkgs[0].Fset,
		module:  module,
		byPath:  make(map[string]*Package, len(pkgs)),
		done:    map[string]*types.Package{},
		loading: map[string]bool{},
		info:    newInfo(),
		seen:    map[string]bool{},
	}
	// The source importer reads GOROOT source; cgo off keeps it to pure-Go
	// fallbacks (and off the cgo tool, which may not be runnable here).
	build.Default.CgoEnabled = false
	tc.std = importer.ForCompiler(tc.fset, "source", nil)
	for _, p := range pkgs {
		tc.byPath[p.ImportPath()] = p
		p.TypesInfo = tc.info
	}
	// Deterministic outer order; recursion imposes dependency order.
	ordered := make([]*Package, len(pkgs))
	copy(ordered, pkgs)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Dir < ordered[j].Dir })
	for _, p := range ordered {
		tc.check(p)
	}
}

// Import implements types.Importer: in-module paths resolve through the
// parsed packages, everything else through the stdlib source importer.
func (tc *typeChecker) Import(path string) (*types.Package, error) {
	if p, ok := tc.byPath[path]; ok {
		return tc.ensure(p)
	}
	if path == tc.module || strings.HasPrefix(path, tc.module+"/") {
		return nil, fmt.Errorf("no package %q in module %s", path, tc.module)
	}
	return tc.std.Import(path)
}

// ensure returns the import view of p, type-checking it (and, recursively,
// its imports) on first demand.
func (tc *typeChecker) ensure(p *Package) (*types.Package, error) {
	path := p.ImportPath()
	if tp, ok := tc.done[path]; ok {
		return tp, nil
	}
	if tc.loading[path] {
		return nil, fmt.Errorf("import cycle: %s -> %s", strings.Join(tc.stack, " -> "), path)
	}
	tc.loading[path] = true
	tc.stack = append(tc.stack, path)

	tp := tc.checkUnit(p, path, p.unitFiles(unitImportView))
	tc.done[path] = tp

	tc.stack = tc.stack[:len(tc.stack)-1]
	delete(tc.loading, path)
	return tp, nil
}

// check runs all three units of p. The import view is cached; the
// augmented and external-test units only refresh the shared Info.
func (tc *typeChecker) check(p *Package) {
	if _, err := tc.ensure(p); err != nil {
		tc.record(p, token.NoPos, err.Error())
	}
	p.TypesPkg = tc.done[p.ImportPath()]
	if files := p.unitFiles(unitAugmented); files != nil {
		tc.checkUnit(p, p.ImportPath(), files)
	}
	if files := p.unitFiles(unitExternalTest); files != nil {
		tc.checkUnit(p, p.ImportPath()+"_test", files)
	}
}

// checkUnit type-checks one file set under the given path, recording every
// error on p. It returns the (possibly partial) package.
func (tc *typeChecker) checkUnit(p *Package, path string, files []*ast.File) *types.Package {
	conf := types.Config{
		Importer:    tc,
		FakeImportC: true,
		Error:       func(err error) { tc.recordErr(p, err) },
	}
	tpkg, err := conf.Check(path, tc.fset, files, tc.info)
	if err != nil && len(p.TypeErrors) == 0 {
		// The Error callback catches types.Error lists; anything else
		// (e.g. a nil file) only surfaces here.
		tc.recordErr(p, err)
	}
	return tpkg
}

// recordErr records a type-check failure as a diagnostic on p.
func (tc *typeChecker) recordErr(p *Package, err error) {
	if te, ok := err.(types.Error); ok {
		tc.record(p, te.Pos, te.Msg)
		return
	}
	tc.record(p, token.NoPos, err.Error())
}

func (tc *typeChecker) record(p *Package, pos token.Pos, msg string) {
	position := tc.fset.Position(pos)
	if !pos.IsValid() && len(p.Files) > 0 {
		position = tc.fset.Position(p.Files[0].AST.Pos())
		position.Line, position.Column = 0, 0
	}
	key := fmt.Sprintf("%s:%d:%d:%s", position.Filename, position.Line, position.Column, msg)
	if tc.seen[key] {
		return
	}
	tc.seen[key] = true
	p.TypeErrors = append(p.TypeErrors, Diagnostic{
		Pos:      position,
		Analyzer: "typecheck",
		Message:  msg,
	})
}

type unitKind int

const (
	unitImportView unitKind = iota
	unitAugmented
	unitExternalTest
)

// unitFiles selects the ASTs for one checking unit. It returns nil when
// the unit adds nothing over the import view (no test files of that kind),
// so callers can skip the re-check.
func (p *Package) unitFiles(kind unitKind) []*ast.File {
	extName := p.baseName() + "_test"
	var files []*ast.File
	hasKind := false
	for _, sf := range p.Files {
		ext := sf.AST.Name.Name == extName
		switch kind {
		case unitImportView:
			if !sf.Test {
				files = append(files, sf.AST)
			}
		case unitAugmented:
			if !ext {
				files = append(files, sf.AST)
				if sf.Test {
					hasKind = true
				}
			}
		case unitExternalTest:
			if ext {
				files = append(files, sf.AST)
				hasKind = true
			}
		}
	}
	if kind != unitImportView && !hasKind {
		return nil
	}
	return files
}

// baseName is the package's non-test name: for a directory holding both
// package foo and package foo_test files, "foo".
func (p *Package) baseName() string {
	for _, sf := range p.Files {
		if name := sf.AST.Name.Name; !strings.HasSuffix(name, "_test") {
			return name
		}
	}
	return strings.TrimSuffix(p.Name, "_test")
}

// typeOf resolves an expression's type, or nil when type-checking did not
// reach it (a package with errors yields partial info; analyzers degrade
// to silence rather than guessing).
func (p *Package) typeOf(e ast.Expr) types.Type {
	if p.TypesInfo == nil {
		return nil
	}
	if tv, ok := p.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.TypesInfo.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.TypesInfo.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// callee resolves the function a call statically names — a package-level
// function, a method, or an interface method, through any receiver
// expression — or nil for builtins, conversions, and calls through
// function-typed values.
func (p *Package) callee(call *ast.CallExpr) *types.Func {
	if p.TypesInfo == nil {
		return nil
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// funcPkgPath returns the path of the package declaring fn, "" for a nil fn
// or a universe-scope method (error.Error).
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isConst reports whether e type-checked as a compile-time constant.
func (p *Package) isConst(e ast.Expr) bool {
	if p.TypesInfo == nil {
		return false
	}
	tv, ok := p.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// namedType reports whether t (after unaliasing) is the named type
// pkgPath.name.
func namedType(t types.Type, pkgPath, name string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
