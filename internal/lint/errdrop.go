package lint

import (
	"go/ast"
	"go/types"
)

// ErrDrop flags silently discarded error returns in non-test code: a call
// whose final result is an error, used as a bare statement, drops failures
// on the floor — the keyserver deadline errors PR 1 had to surface are the
// canonical example. Explicit discards (`_ = f()`) and deferred cleanup
// calls remain allowed: both are visible, deliberate decisions.
//
// Defer-position discards (`defer f.Close()`) are a documented exemption,
// not an oversight. A deferred cleanup error fires after the function's
// real work has already succeeded or failed; there is usually no caller
// left to report it to, and the only mechanical remediations — wrapping in
// `defer func() { _ = f.Close() }()` or plumbing a named error result —
// add ceremony without changing what the program does with the failure.
// Where a deferred error genuinely matters (write-back closes on durable
// state), the fix is structural (close explicitly on the success path),
// which this analyzer does flag, since the explicit close is a bare
// ExprStmt. The errdrop fixture pins the exemption so a future change that
// starts flagging defers fails the suite and forces this trade-off to be
// re-argued rather than drifting silently.
//
// The check is typed: a bare call statement drops an error when the last
// result of the call is the built-in error type and the callee — a
// function, a method, or an interface method, reached through any
// expression (a field, an interface value, another call's result) — is
// declared in this module. Standard-library callees stay out of scope:
// strings.Builder, hash.Hash and fmt.Fprintf to a buffer return errors that
// are nil by contract, and flagging them would bury the real findings.
// Calls through function-typed variables have no declared callee and are
// not flagged.
func ErrDrop() *Analyzer {
	return &Analyzer{
		Name: "errdrop",
		Doc:  "flag silently discarded error returns in non-test code",
		Run:  runErrDrop,
	}
}

func runErrDrop(p *Package, r *Reporter) {
	for _, sf := range p.Files {
		if sf.Test {
			continue
		}
		ast.Inspect(sf.AST, func(n ast.Node) bool {
			// Only bare expression statements. Defers are a documented
			// exemption (see the ErrDrop doc comment and the fixture's
			// deferredDiscards); go stmts and assignments are out of
			// scope by design.
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := p.callee(call); fn != nil && p.inModule(funcPkgPath(fn)) && endsInError(p.typeOf(call)) {
				r.Reportf(call.Pos(), "%s returns an error that is silently discarded; handle it or discard explicitly with _ =", types.ExprString(call.Fun))
			}
			return true
		})
	}
}

// endsInError reports whether a call of result type t (a single type, or a
// tuple for multi-value calls) ends in the built-in error type.
func endsInError(t types.Type) bool {
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(tuple.Len() - 1).Type()
	}
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}
