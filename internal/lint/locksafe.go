package lint

import (
	"go/ast"
	"go/token"
)

// LockSafe enforces one piece of lock discipline: in a function with
// multiple return paths, a mutex taken with Lock() must be released by defer
// Unlock() — or every return between Lock and Unlock is a leak that
// deadlocks the next caller. The check is a source-order scan: a return
// statement reached while a lock is held (no intervening Unlock, no deferred
// Unlock registered) is flagged.
//
// Mutex-bearing structs passed or received by value are go vet's copylocks
// check, which verify.sh runs before canalvet.
func LockSafe() *Analyzer {
	return &Analyzer{
		Name: "locksafe",
		Doc:  "Lock without defer Unlock across multiple return paths",
		Run:  runLockSafe,
	}
}

func runLockSafe(p *Package, r *Reporter) {
	for _, sf := range p.Files {
		forEachFunc(sf.AST, func(fd *ast.FuncDecl, body *ast.BlockStmt) {
			checkLockPaths(body, r)
		})
		// Function literals get the same Lock/return scan, each at its own
		// nesting level (checkLockPaths does not descend into inner literals,
		// so visiting every literal here scans each body exactly once).
		ast.Inspect(sf.AST, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				checkLockPaths(fl.Body, r)
			}
			return true
		})
	}
}

// lockEvent is one Lock/Unlock/defer-Unlock/return in source order.
type lockEvent struct {
	kind   int // 0 lock, 1 unlock, 2 defer-unlock, 3 return
	target string
	read   bool // RLock/RUnlock
	pos    token.Pos
}

// checkLockPaths runs the linear lock-state scan over one function body.
// Nested function literals are scanned separately (their returns do not
// return from the enclosing function), so they are skipped here — except
// deferred closures, whose Unlock calls count as deferred unlocks.
func checkLockPaths(body *ast.BlockStmt, r *Reporter) {
	var events []lockEvent
	collect := func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch v := m.(type) {
			case *ast.FuncLit:
				return false // separate scan; returns inside don't exit us
			case *ast.DeferStmt:
				// defer x.Unlock() or defer func(){ ...Unlock()... }()
				if fl, ok := v.Call.Fun.(*ast.FuncLit); ok {
					collectDeferredUnlocks(fl.Body, &events)
					return false
				}
				if sel, ok := v.Call.Fun.(*ast.SelectorExpr); ok {
					if kind, read, isLock := lockKind(sel.Sel.Name); isLock && kind == 1 {
						events = append(events, lockEvent{kind: 2, target: exprString(sel.X), read: read, pos: v.Pos()})
					}
				}
				return false
			case *ast.CallExpr:
				if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
					if kind, read, isLock := lockKind(sel.Sel.Name); isLock {
						events = append(events, lockEvent{kind: kind, target: exprString(sel.X), read: read, pos: v.Pos()})
					}
				}
			case *ast.ReturnStmt:
				events = append(events, lockEvent{kind: 3, pos: v.Pos()})
			}
			return true
		})
	}
	collect(body)

	type lockKey struct {
		target string
		read   bool
	}
	held := map[lockKey]token.Pos{}
	deferredSafe := map[lockKey]bool{}
	for _, ev := range events {
		key := lockKey{ev.target, ev.read}
		switch ev.kind {
		case 0:
			held[key] = ev.pos
		case 1:
			delete(held, key)
		case 2:
			deferredSafe[key] = true
		case 3:
			for k, lockPos := range held {
				if deferredSafe[k] {
					continue
				}
				r.Reportf(lockPos, "%s is locked here but a return path may exit without unlocking; use defer %s.Unlock()", k.target, k.target)
				delete(held, k) // one report per Lock site
			}
		}
	}
}

// collectDeferredUnlocks records Unlock calls inside a deferred closure.
func collectDeferredUnlocks(body *ast.BlockStmt, events *[]lockEvent) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if kind, read, isLock := lockKind(sel.Sel.Name); isLock && kind == 1 {
				*events = append(*events, lockEvent{kind: 2, target: exprString(sel.X), read: read, pos: call.Pos()})
			}
		}
		return true
	})
}

// lockKind classifies a method name: kind 0 for Lock/RLock, 1 for
// Unlock/RUnlock; read marks the R variants.
func lockKind(name string) (kind int, read, ok bool) {
	switch name {
	case "Lock":
		return 0, false, true
	case "RLock":
		return 0, true, true
	case "Unlock":
		return 1, false, true
	case "RUnlock":
		return 1, true, true
	}
	return 0, false, false
}
