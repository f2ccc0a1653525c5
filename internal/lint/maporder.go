package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags range-over-map loops whose iteration order leaks into
// results: bodies that append map-derived values to a slice declared outside
// the loop with no subsequent sort of that slice, or that print/write output
// directly per iteration. Go randomizes map iteration order per run, so
// either pattern makes output differ between identically-seeded runs.
//
// The blessed idiom is Backend.Services (internal/gateway/gateway.go):
// collect into a slice, then sort before returning.
//
// Whether the range subject is a map is read off its type, so maps reached
// through fields, selectors, function results and named map types all
// count, and a slice that merely shares a name with a map does not. In a
// package that fails to type-check the analyzer stays silent on the
// expressions the checker could not type.
func MapOrder() *Analyzer {
	return &Analyzer{
		Name: "maporder",
		Doc:  "flag map-range loops that leak iteration order into results",
		Run:  runMapOrder,
	}
}

// emitFuncs are printing/writing calls that make loop-body output
// order-dependent no matter what happens afterwards.
var emitFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// slicesSortFuncs are the functions of package slices that put a slice in a
// deterministic order (everything in package sort does).
var slicesSortFuncs = map[string]bool{"Sort": true, "SortFunc": true, "SortStableFunc": true}

func runMapOrder(p *Package, r *Reporter) {
	for _, sf := range p.Files {
		walkWithStack(sf.AST, func(n ast.Node, stack []ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.typeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			appended, emitted := p.loopLeaks(rng)
			for _, pos := range emitted {
				r.Reportf(pos, "output emitted inside a map-range loop is iteration-order dependent; collect keys and sort first (see Backend.Services)")
			}
			for name, pos := range appended {
				if p.sortedAfter(rng, stack, name) {
					continue
				}
				r.Reportf(pos, "slice %q built from map-range iteration is never sorted; map order varies per run (sort it, or range over sorted keys)", name)
			}
			return true
		})
	}
}

// loopLeaks scans a map-range body for order leaks: appends to slices
// declared outside the loop (returned keyed by slice name with the first
// offending position) and direct emit calls.
func (p *Package) loopLeaks(rng *ast.RangeStmt) (map[string]token.Pos, []token.Pos) {
	// Names declared inside the loop body (and the range vars themselves)
	// cannot outlive an iteration ordering-visibly unless appended onward,
	// which a later pass would catch at that site; track them to skip.
	local := map[string]bool{}
	if id, ok := rng.Key.(*ast.Ident); ok {
		local[id.Name] = true
	}
	if id, ok := rng.Value.(*ast.Ident); ok {
		local[id.Name] = true
	}
	appended := map[string]token.Pos{}
	var emitted []token.Pos
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			if v.Tok == token.DEFINE {
				for _, lhs := range v.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						local[id.Name] = true
					}
				}
			}
			for i, rhs := range v.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || i >= len(v.Lhs) {
					continue
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
					continue
				}
				var target string
				switch lhs := v.Lhs[i].(type) {
				case *ast.Ident:
					if local[lhs.Name] {
						continue
					}
					target = lhs.Name
				case *ast.SelectorExpr:
					target = exprString(lhs)
				default:
					continue
				}
				if _, seen := appended[target]; !seen {
					appended[target] = call.Pos()
				}
			}
		case *ast.CallExpr:
			if fn := p.callee(v); funcPkgPath(fn) == "fmt" && emitFuncs[fn.Name()] {
				emitted = append(emitted, v.Pos())
			}
		}
		return true
	})
	return appended, emitted
}

// sortedAfter reports whether a statement after the range loop sorts the
// named slice (directly or inside a closure argument, covering
// sort.Slice(out, func...)). "After" is judged in every enclosing block out
// to the function body, so a loop inside a closure, a branch or another
// loop is covered by a sort that follows the statement holding it.
func (p *Package) sortedAfter(rng *ast.RangeStmt, stack []ast.Node, name string) bool {
	inner := ast.Node(rng)
	for i := len(stack) - 1; i >= 0; i-- {
		switch b := stack[i].(type) {
		case *ast.BlockStmt:
			for j, stmt := range b.List {
				if stmt == inner && p.sorts(b.List[j+1:], name) {
					return true
				}
			}
		case *ast.CaseClause, *ast.CommClause:
			// The clauses after this one are alternatives, not successors:
			// inner stays put so the switch body finds no match.
			continue
		}
		if _, isStmt := stack[i].(ast.Stmt); isStmt {
			inner = stack[i]
		}
	}
	return false
}

// sorts reports whether any of the statements calls a sorting function
// with an argument that mentions the named slice.
func (p *Package) sorts(stmts []ast.Stmt, name string) bool {
	found := false
	for _, stmt := range stmts {
		ast.Inspect(stmt, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fn := p.callee(call); funcPkgPath(fn) {
			case "sort":
			case "slices":
				if !slicesSortFuncs[fn.Name()] {
					return true
				}
			default:
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					switch e := m.(type) {
					case *ast.Ident:
						found = found || e.Name == name
					case *ast.SelectorExpr:
						found = found || exprString(e) == name
					}
					return !found
				})
			}
			return !found
		})
	}
	return found
}
