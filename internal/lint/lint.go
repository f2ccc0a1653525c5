// Package lint is canalvet's engine: a from-scratch static-analysis
// framework built only on the standard library's go/parser, go/ast,
// go/token and go/types (no golang.org/x/tools, keeping the module
// zero-dependency).
//
// The repository's tables and figures are regenerated by a discrete-event
// simulator that must be bit-for-bit deterministic under a seed (DESIGN §1).
// canalvet encodes the invariants behind that claim as analyzers over one
// engine: the module is parsed (load.go) and type-checked once from source
// into one shared types.Info (typecheck.go), and each analyzer then checks
// one package at a time, on its syntax and type information:
//
//	simdeterminism  no wall clock or global math/rand in simulation
//	                packages
//	maporder        no order-dependent output from map iteration
//	unitsafe        no unit-less mixing of durations and bare numbers; the
//	                named sim constructors are the blessed conversions
//
// The request paths' allocation contract is checked at run time, not here:
// TestHotPathAllocs (internal/bench, pinned by BENCH_hotpath.json) and
// TestServeHTTPAllocs (root package) pin allocations per operation and per
// way through ServeHTTP.
//
// Tenant isolation on the live gateway is checked at run time, not here:
// TestPooledStateTenantIsolation (gateway_isolation_test.go) drives three
// marked tenants over every way through ServeHTTP and fails on any artifact
// that carries another tenant's marker.
//
// Intentional violations are suppressed line-by-line with a justified
// directive:
//
//	//canal:allow <analyzer> <reason...>
//
// A directive must name a real analyzer and carry a reason; directives that
// suppress nothing are themselves reported, so stale annotations cannot
// accumulate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// DefaultModule is the module path assumed when a loader has no go.mod to
// read (single-directory fixture loads).
const DefaultModule = "canalmesh"

// SourceFile is one parsed Go file of a package.
type SourceFile struct {
	Name string // path as given to the loader
	AST  *ast.File
	Test bool // *_test.go
}

// Package is the unit analyzers operate on: every parsed file of one
// directory (including external _test packages — analyzers that must skip
// tests check SourceFile.Test).
type Package struct {
	// Dir is the slash-separated directory relative to the module root
	// ("" for the root package).
	Dir   string
	Name  string
	Fset  *token.FileSet
	Files []SourceFile
	// Module is the module path the package belongs to (DefaultModule
	// unless the loader read a different one from go.mod).
	Module string

	// TypesPkg and TypesInfo are filled by TypeCheck. TypesInfo is shared
	// across the whole module, so any expression from any file resolves
	// through it; match types by (package path, name), not object
	// identity (see typecheck.go). TypeErrors holds the package's
	// type-check failures as ready-made "typecheck" diagnostics.
	TypesPkg   *types.Package
	TypesInfo  *types.Info
	TypeErrors []Diagnostic
}

// Diagnostic is one finding, positioned for file:line:col reporting.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reporter collects diagnostics for one analyzer over one package.
type Reporter struct {
	fset     *token.FileSet
	analyzer string
	out      *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	*r.out = append(*r.out, Diagnostic{
		Pos:      r.fset.Position(pos),
		Analyzer: r.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant checker: Run reads one package's syntax and
// types and reports through r.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package, r *Reporter)
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SimDeterminism(),
		MapOrder(),
		UnitSafe(),
	}
}

// AnalyzerNames returns the set of valid analyzer names (used to validate
// //canal:allow directives).
func AnalyzerNames() map[string]bool {
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	return names
}

// analyze runs the analyzers over one package and returns their raw
// findings, before any directive is applied.
func analyze(p *Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		a.Run(p, &Reporter{fset: p.Fset, analyzer: a.Name, out: &out})
	}
	return out
}

// Run executes every analyzer over the packages, applies //canal:allow
// directives, and returns the surviving diagnostics sorted by position.
// Directive problems (unknown analyzer, missing reason, suppressing nothing)
// are reported as diagnostics of the pseudo-analyzer "directive"; packages
// that fail to type-check contribute "typecheck" diagnostics (neither
// pseudo-analyzer is suppressible).
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	// Type-check the module once unless the caller already did.
	if len(pkgs) > 0 && pkgs[0].TypesInfo == nil {
		TypeCheck(pkgs)
	}
	// Directive staleness is judged only against the analyzers actually
	// running: a subset run (a fixture test of one analyzer) must not report
	// the other analyzers' directives as suppressing nothing.
	active := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		active[a.Name] = true
	}
	var out []Diagnostic
	for _, p := range pkgs {
		dirs, bad := ParseDirectives(p)
		activeDirs := dirs[:0:0]
		for _, dir := range dirs {
			if active[dir.Analyzer] {
				activeDirs = append(activeDirs, dir)
			}
		}
		out = append(out, bad...)
		out = append(out, p.TypeErrors...)
		out = append(out, ApplyDirectives(analyze(p, analyzers), activeDirs)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		// Message tiebreak: two findings can share one position, and
		// output order is a tested byte-for-byte invariant.
		return out[i].Message < out[j].Message
	})
	return out
}

// exprString renders a small expression (append targets, sort arguments)
// into a stable key for matching a sort to the slice a loop built. It is
// not a full printer: anything beyond idents, selectors, stars, parens, and
// index expressions renders as "?".
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(v.X)
	case *ast.ParenExpr:
		return exprString(v.X)
	case *ast.IndexExpr:
		return exprString(v.X) + "[" + exprString(v.Index) + "]"
	default:
		return "?"
	}
}

// walkWithStack traverses the AST depth-first, calling fn with each node and
// the stack of its ancestors (outermost first, not including n itself).
// Returning false skips the node's children.
func walkWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		keep := fn(n, stack)
		if keep {
			stack = append(stack, n)
		}
		return keep
	})
}
