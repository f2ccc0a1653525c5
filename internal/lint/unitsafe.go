package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// UnitSafe is the type-aware unit-hygiene analyzer. The simulator's
// outputs are latency tables; the classic way such tables silently drift
// is arithmetic that loses its unit — a bare number added to a duration
// (it reads as nanoseconds), a float of seconds cast straight to
// time.Duration, two durations multiplied (ns²). unitsafe rejects:
//
//   - a bare numeric literal used where a duration is expected (argument,
//     assignment, comparison, addition), unless it multiplies/divides a
//     unit constant — `100 * time.Millisecond` is the blessed spelling;
//   - unit-less conversions time.Duration(x) / sim.Time(x) of numeric
//     expressions, unless the result immediately scales a duration
//     (`time.Duration(i) * gap` is count-scaling, not a conversion bug);
//     named constructors (units.Nanos/Micros/Millis/Seconds) and factor
//     helpers (units.Scale, units.Div) are the blessed conversions;
//   - direct conversions between sim.Time and time.Duration — instants
//     and durations cross only through sim.FromDuration / Time.Duration /
//     sim.ToDuration, so the crossings stay greppable;
//   - multiplying two non-constant durations.
//
// It runs on every non-main package, test files included, and only where
// type information resolved (a package with type errors degrades to
// silence rather than guessing).
func UnitSafe() *Analyzer {
	return &Analyzer{
		Name: "unitsafe",
		Doc:  "forbid unit-less duration arithmetic and conversions (type-aware)",
		Run:  runUnitSafe,
	}
}

// simTimePath returns the import path of the sim package for this module.
func simTimePath(p *Package) string {
	module := p.Module
	if module == "" {
		module = DefaultModule
	}
	return module + "/internal/sim"
}

// durKind classifies a type: 0 = not a duration, 1 = time.Duration,
// 2 = sim.Time.
func durKind(p *Package, t types.Type) int {
	if t == nil {
		return 0
	}
	if namedType(t, "time", "Duration") {
		return 1
	}
	if namedType(t, simTimePath(p), "Time") {
		return 2
	}
	return 0
}

func durKindName(k int) string {
	if k == 2 {
		return "sim.Time"
	}
	return "time.Duration"
}

// numericArg reports whether t is a numeric type a duration conversion
// could take: a basic integer/float, or a type parameter (the units
// constructors convert their own constrained parameter).
func numericArg(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, ok := types.Unalias(t).(*types.TypeParam); ok {
		return true
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsFloat|types.IsUntyped) != 0 && b.Info()&types.IsNumeric != 0
}

func runUnitSafe(p *Package, r *Reporter) {
	if p.TypesInfo == nil || p.baseName() == "main" {
		return
	}
	for _, sf := range p.Files {
		walkWithStack(sf.AST, func(n ast.Node, stack []ast.Node) bool {
			switch v := n.(type) {
			case *ast.BasicLit:
				checkBareLit(p, r, v, stack)
			case *ast.BinaryExpr:
				checkDurMul(p, r, v)
			case *ast.CallExpr:
				checkDurConv(p, r, v, stack)
			}
			return true
		})
	}
}

// parentOf walks outward past parentheses and unary +/- and returns the
// first meaningful ancestor of the node at the top of the stack.
func parentOf(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch v := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.UnaryExpr:
			if v.Op == token.SUB || v.Op == token.ADD {
				continue
			}
			return v
		default:
			return v
		}
	}
	return nil
}

// otherOperand returns b's operand on the opposite side of pos.
func otherOperand(b *ast.BinaryExpr, pos token.Pos) ast.Expr {
	if pos >= b.Y.Pos() && pos < b.Y.End() {
		return b.X
	}
	return b.Y
}

// scalesDuration reports whether the expression ending the stack is an
// operand of * or / whose other side is duration-typed: the blessed
// count-times-unit idiom.
func scalesDuration(p *Package, pos token.Pos, stack []ast.Node) bool {
	b, ok := parentOf(stack).(*ast.BinaryExpr)
	if !ok || (b.Op != token.MUL && b.Op != token.QUO) {
		return false
	}
	return durKind(p, p.typeOf(otherOperand(b, pos))) > 0
}

// insideDurConversion reports whether the node is the direct argument of a
// conversion to a duration type (handled by checkDurConv, not the literal
// rule).
func insideDurConversion(p *Package, stack []ast.Node) bool {
	call, ok := parentOf(stack).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	tv, ok := p.TypesInfo.Types[call.Fun]
	return ok && tv.IsType() && durKind(p, tv.Type) > 0
}

// checkBareLit flags a numeric literal whose checked type is a duration:
// the unit (nanoseconds) is invisible at the call site. Literals that
// scale a unit constant (`100 * time.Millisecond`, `d / 2`) are the
// blessed idiom; zero is unit-free.
func checkBareLit(p *Package, r *Reporter, lit *ast.BasicLit, stack []ast.Node) {
	if lit.Kind != token.INT && lit.Kind != token.FLOAT {
		return
	}
	tv, ok := p.TypesInfo.Types[lit]
	if !ok || tv.Value == nil || constant.Sign(tv.Value) == 0 {
		return
	}
	k := durKind(p, tv.Type)
	if k == 0 {
		return
	}
	if b, ok := parentOf(stack).(*ast.BinaryExpr); ok && (b.Op == token.MUL || b.Op == token.QUO) {
		return
	}
	if insideDurConversion(p, stack) {
		return
	}
	if k == 1 {
		r.Reportf(lit.Pos(), "bare numeric literal %s used as %s reads as nanoseconds; spell the unit (e.g. %s*time.Millisecond)",
			lit.Value, durKindName(k), lit.Value)
		return
	}
	r.Reportf(lit.Pos(), "bare numeric literal %s used as %s reads as nanoseconds; build the instant from a duration via sim.FromDuration",
		lit.Value, durKindName(k))
}

// isDurConversionExpr reports whether e (unwrapping parens) converts to a
// duration type — the marker that a mul/div operand is a count, not a
// duration.
func isDurConversionExpr(p *Package, e ast.Expr) bool {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = pe.X
	}
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	tv, ok := p.TypesInfo.Types[call.Fun]
	return ok && tv.IsType() && durKind(p, tv.Type) > 0
}

// checkDurMul flags duration×duration: the product's unit is ns², which
// no latency table wants. Constant operands (3 * time.Second) and
// explicit count conversions (time.Duration(i) * gap) are exempt.
func checkDurMul(p *Package, r *Reporter, b *ast.BinaryExpr) {
	if b.Op != token.MUL {
		return
	}
	if durKind(p, p.typeOf(b.X)) == 0 || durKind(p, p.typeOf(b.Y)) == 0 {
		return
	}
	if p.isConst(b.X) || p.isConst(b.Y) {
		return
	}
	if isDurConversionExpr(p, b.X) || isDurConversionExpr(p, b.Y) {
		return
	}
	r.Reportf(b.OpPos, "multiplying two durations yields nanoseconds-squared; make one side a dimensionless count, or use units.Scale for float factors")
}

// checkDurConv polices conversions whose target is a duration type.
func checkDurConv(p *Package, r *Reporter, call *ast.CallExpr, stack []ast.Node) {
	tv, ok := p.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	dst := durKind(p, tv.Type)
	if dst == 0 {
		return
	}
	arg := call.Args[0]
	// A bare literal argument is handled first: the checker records the
	// literal with the conversion's target type, so the src/dst comparison
	// below would mistake it for a redundant same-type conversion.
	if lit, ok := bareLiteral(arg); ok {
		if constant.Sign(constantOf(p, arg)) == 0 {
			return // Duration(0) is unit-free
		}
		if scalesDuration(p, call.Pos(), stack) {
			return // time.Duration(2) * unit — a count, not a conversion bug
		}
		r.Reportf(call.Pos(), "conversion of bare literal %s to %s hides the nanosecond unit; spell a unit or use a sim constructor",
			lit.Value, durKindName(dst))
		return
	}
	src := durKind(p, p.typeOf(arg))
	if src == dst {
		return // redundant but harmless
	}
	if src != 0 {
		// sim.Time <-> time.Duration must cross through the named helpers,
		// so unit-boundary crossings stay greppable.
		r.Reportf(call.Fun.Pos(), "direct %s(...) conversion between sim.Time and time.Duration; cross through sim.FromDuration / sim.ToDuration / Time.Duration",
			durKindName(dst))
		return
	}
	if !numericArg(p.typeOf(arg)) {
		return
	}
	if scalesDuration(p, call.Pos(), stack) {
		return // time.Duration(i) * unit — a count, not a conversion bug
	}
	// Non-literal numeric expression: Duration(x) silently decides x is in
	// nanoseconds (or, for float scaling expressions, that the maths kept
	// its units straight). Name the unit instead.
	if isConstZero(p, arg) {
		return
	}
	r.Reportf(call.Fun.Pos(), "unit-less conversion to %s; name the unit with units.Nanos/Micros/Millis, units.Seconds for float seconds, or units.Scale/units.Div for factor scaling",
		durKindName(dst))
}

// bareLiteral unwraps parens and unary sign and returns the numeric
// literal beneath, if that is all the expression is.
func bareLiteral(e ast.Expr) (*ast.BasicLit, bool) {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.UnaryExpr:
			if v.Op != token.SUB && v.Op != token.ADD {
				return nil, false
			}
			e = v.X
		case *ast.BasicLit:
			if v.Kind == token.INT || v.Kind == token.FLOAT {
				return v, true
			}
			return nil, false
		default:
			return nil, false
		}
	}
}

func constantOf(p *Package, e ast.Expr) constant.Value {
	if tv, ok := p.TypesInfo.Types[e]; ok && tv.Value != nil {
		return tv.Value
	}
	return constant.MakeInt64(1) // unknown: treat as nonzero
}

func isConstZero(p *Package, e ast.Expr) bool {
	tv, ok := p.TypesInfo.Types[e]
	return ok && tv.Value != nil && constant.Sign(tv.Value) == 0
}
