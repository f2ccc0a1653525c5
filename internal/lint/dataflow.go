package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the dataflow layer of the engine: a deterministic,
// interprocedural taint analysis that statically audits tenant isolation on
// the request path. It is flow-insensitive (a function body is a monotone
// set of transfer rules iterated to a fixpoint, not a CFG) but field- and
// call-sensitive: struct fields of local values are tracked as separate
// cells, and calls go through per-function summaries computed bottom-up
// over the strongly connected components of the v3 call graph
// (callgraph.go), so taint crosses function boundaries without ever
// re-walking a callee.
//
// Two taint kinds flow:
//
//	identity  the tenant key itself (l7.Request.Tenant, policy.Query.
//	          SrcTenant, the X-Canal-Tenant header) — WHO the request is for
//	payload   request-derived data (paths, headers, bodies, error text
//	          computed from them) — WHAT the request carried
//
// The distinction is the whole analysis: tenant data leaving the request's
// own context (a response writer, the shared access log, package-level
// state) is fine exactly when the tenant key travels with it — a log entry
// carrying Tenant:, a cache indexed by the tenant — and a leak when the
// payload travels alone. The tenantflow analyzer reports exactly that:
// payload-tainted values reaching a sink with no identity taint alongside,
// with the propagation chain.
//
// Audited isolation points are declared on the function:
//
//	//canal:boundary <reason>
//
// A boundary function's body is exempt and its summary is clean: taint
// does not propagate through it. Unlike //canal:allow, a boundary is a
// declaration about a design point, not a line suppression, so it has no
// staleness lifecycle; ParseDirectives still rejects one with no reason.
//
// Determinism: functions are analyzed in sorted key order, SCCs come out
// of Tarjan's algorithm driven by that order, summary sink lists are
// deduplicated by value, and every emitted diagnostic is positioned —
// Run's final sort makes the output byte-stable across runs, which
// verify.sh and CI enforce by comparing two fresh runs.
//
// Scope: _test.go files and package main are out of scope by design — the
// engine guards the library request path (gateway, l7, policy, admission,
// trace, federation), not demo binaries or test fakes. Interface-method
// and function-value calls are handled conservatively: the result carries
// the union of the argument taints, with no summary fan-out.

// taintKind is a bitmask of the two taint colors.
type taintKind uint8

const (
	// taintIdentity marks the tenant key itself.
	taintIdentity taintKind = 1 << iota
	// taintPayload marks request-derived data.
	taintPayload
)

// paramSet is a bitmask over a function's parameter slots: slot 0 is the
// receiver when there is one, then the declared parameters in order. Slots
// past 63 are not tracked (no function in this module comes close).
type paramSet uint64

// mark is the taint lattice value of one cell: which kinds have reached it,
// which of the enclosing function's parameters it derives from, and the
// first source that colored it (for messages). Merging is a monotone union;
// the first source wins, which is deterministic because every walk order is.
type mark struct {
	kinds  taintKind
	params paramSet
	src    string
	srcPos token.Position
}

func (m mark) union(o mark) mark {
	m.kinds |= o.kinds
	m.params |= o.params
	if m.src == "" {
		m.src, m.srcPos = o.src, o.srcPos
	}
	return m
}

func (m mark) empty() bool { return m.kinds == 0 && m.params == 0 }

// sourceTypes maps the module's taint-source struct types to per-field
// kinds; the "" entry is the default for unlisted fields. The table is
// keyed by the canalmesh import paths, so fixture mini-modules posing as
// module canalmesh exercise the same sources the real module does.
var sourceTypes = map[string]map[string]taintKind{
	"canalmesh/internal/l7.Request": {
		"Tenant": taintIdentity,
		"":       taintPayload,
	},
	"canalmesh/internal/policy.Query": {
		"SrcTenant": taintIdentity,
		"":          taintPayload,
	},
	"canalmesh/internal/admission.tenantQueue": {
		"tenant": taintIdentity,
		"":       taintPayload,
	},
	"net/http.Request": {
		"": taintPayload,
	},
}

// taintSinks maps callee keys (funcKey strings) to sink descriptions:
// calls through which tenant-derived data leaves the request's own
// context. A sink call is keyed — and therefore fine — when an
// identity-tainted value travels in the same call.
var taintSinks = map[string]string{
	"net/http.Error":                                       "http.Error response write",
	"net/http.(ResponseWriter).Write":                      "response body write",
	"canalmesh/internal/telemetry.(*AccessLog).Log":        "the shared access log",
	"canalmesh/internal/trace.(*Tracer).Start":             "the shared trace collector",
	"canalmesh/internal/trace.(*Tracer).StartRemote":       "the shared trace collector",
	"canalmesh/internal/trace.(*Tracer).StartTenant":       "the shared trace collector",
	"canalmesh/internal/trace.(*Tracer).StartRemoteTenant": "the shared trace collector",
}

// headerGetKey is net/http.(Header).Get: identity when asked for the
// tenant header by constant, payload otherwise.
const headerGetKey = "net/http.(Header).Get"

// tenantHeaderValue mirrors canal.HeaderTenant; the engine matches the
// constant's value, not the constant, so it works in any package.
const tenantHeaderValue = "X-Canal-Tenant"

// boundaryMarker declares an audited isolation point on a function.
const boundaryMarker = "//canal:boundary"

// boundaryReason extracts a well-formed boundary reason from a doc
// comment ("" when absent or malformed; ParseDirectives reports the
// malformed case).
func boundaryReason(doc *ast.CommentGroup) string {
	if doc == nil {
		return ""
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, boundaryMarker)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
			continue
		}
		return strings.TrimSpace(rest)
	}
	return ""
}

// paramSink is one sink reachable from a function, still conditional on
// the caller: it fires when any parameter in params carries payload taint
// into the call. sink includes the sink's position; chain is the call path
// from this function (exclusive) down to the sink's function.
type paramSink struct {
	params paramSet
	sink   string
	chain  string
}

// taintSummary is the memoized interprocedural behavior of one function.
type taintSummary struct {
	key      string
	boundary bool
	// resultKinds/resultSrc: taint originating inside (sources read by the
	// function or its callees) that flows to any result.
	resultKinds  taintKind
	resultSrc    string
	resultSrcPos token.Position
	// resultParams: parameter slots whose taint flows to any result.
	resultParams paramSet
	paramSinks   []paramSink
	sinkSeen     map[string]bool
}

func (s *taintSummary) addParamSink(params paramSet, sink, chain string) bool {
	key := fmt.Sprintf("%x\x00%s", uint64(params), sink)
	if s.sinkSeen[key] {
		return false
	}
	if s.sinkSeen == nil {
		s.sinkSeen = map[string]bool{}
	}
	s.sinkSeen[key] = true
	s.paramSinks = append(s.paramSinks, paramSink{params: params, sink: sink, chain: chain})
	return true
}

// taintFn is one analyzable function body.
type taintFn struct {
	p        *Package
	fd       *ast.FuncDecl
	key      string
	boundary string
	walker   *taintWalker
}

// TaintEngine is the module-wide dataflow index. Build it with BuildTaint;
// analysis runs lazily on first use and is memoized.
type TaintEngine struct {
	g        *CallGraph
	fns      map[string]*taintFn
	keys     []string // sorted analyzable keys
	sums     map[string]*taintSummary
	findings []Diagnostic // tenantflow's
	done     bool
}

// BuildTaint indexes every analyzable function body (non-test, non-main)
// over an existing call graph. The packages must already be type-checked.
func BuildTaint(pkgs []*Package, g *CallGraph) *TaintEngine {
	e := &TaintEngine{
		g:    g,
		fns:  map[string]*taintFn{},
		sums: map[string]*taintSummary{},
	}
	ordered := make([]*Package, len(pkgs))
	copy(ordered, pkgs)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Dir < ordered[j].Dir })
	for _, p := range ordered {
		if p.TypesInfo == nil || p.baseName() == "main" {
			continue
		}
		for _, sf := range p.Files {
			if sf.Test {
				continue
			}
			for _, decl := range sf.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				key := funcKey(obj)
				if _, dup := e.fns[key]; dup {
					continue // colliding keys (init): first wins
				}
				e.fns[key] = &taintFn{p: p, fd: fd, key: key, boundary: boundaryReason(fd.Doc)}
			}
		}
	}
	e.keys = make([]string, 0, len(e.fns))
	for k := range e.fns {
		e.keys = append(e.keys, k)
	}
	sort.Strings(e.keys)
	return e
}

// tenantFlowFindings returns the memoized module-wide tenantflow findings.
func (e *TaintEngine) tenantFlowFindings() []Diagnostic {
	e.analyze()
	return e.findings
}

// analyze runs the whole pipeline once: summaries bottom-up over SCCs,
// then a reporting pass per function.
func (e *TaintEngine) analyze() {
	if e.done {
		return
	}
	e.done = true
	for _, scc := range e.sccs() {
		e.solveSCC(scc)
	}
	for _, k := range e.keys {
		fn := e.fns[k]
		if fn.boundary != "" || fn.walker == nil {
			continue
		}
		fn.walker.pass(true)
	}
}

// sccs computes the strongly connected components of the analyzable
// subgraph with Tarjan's algorithm, returning them callees-first (reverse
// topological order) — exactly the bottom-up summary order. Roots are
// visited in sorted key order, so the result is deterministic.
func (e *TaintEngine) sccs() [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var out [][]string
	next := 0
	var strongconnect func(k string)
	strongconnect = func(k string) {
		index[k] = next
		low[k] = next
		next++
		stack = append(stack, k)
		onStack[k] = true
		if n := e.g.Nodes[k]; n != nil {
			for _, edge := range n.Calls {
				c := edge.Callee
				if _, analyzable := e.fns[c]; !analyzable {
					continue
				}
				if _, seen := index[c]; !seen {
					strongconnect(c)
					if low[c] < low[k] {
						low[k] = low[c]
					}
				} else if onStack[c] && index[c] < low[k] {
					low[k] = index[c]
				}
			}
		}
		if low[k] == index[k] {
			var scc []string
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				scc = append(scc, top)
				if top == k {
					break
				}
			}
			sort.Strings(scc)
			out = append(out, scc)
		}
	}
	for _, k := range e.keys {
		if _, seen := index[k]; !seen {
			strongconnect(k)
		}
	}
	return out
}

// solveSCC initializes summaries for the component's members and iterates
// their transfer passes to a joint fixpoint. Marks only grow and sink
// lists are deduplicated by value, so the iteration converges; the cap is
// a safety net, not a correctness device.
func (e *TaintEngine) solveSCC(scc []string) {
	for _, k := range scc {
		fn := e.fns[k]
		sum := &taintSummary{key: k, boundary: fn.boundary != ""}
		e.sums[k] = sum
		if sum.boundary {
			continue
		}
		fn.walker = newTaintWalker(e, fn, sum)
	}
	for round := 0; round < 12; round++ {
		changed := false
		for _, k := range scc {
			fn := e.fns[k]
			if fn.walker == nil {
				continue
			}
			if fn.walker.pass(false) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// cellKey addresses one tracked value: a variable, or one field of it.
type cellKey struct {
	obj   types.Object
	field string
}

// taintWalker holds the per-function fixpoint state.
type taintWalker struct {
	e     *TaintEngine
	fn    *taintFn
	sum   *taintSummary
	cells map[cellKey]mark
	// slotOf maps parameter objects to their slot index.
	slotOf map[types.Object]int
	// report gates finding emission (the final pass only).
	report  bool
	changed bool
}

func newTaintWalker(e *TaintEngine, fn *taintFn, sum *taintSummary) *taintWalker {
	w := &taintWalker{e: e, fn: fn, sum: sum, cells: map[cellKey]mark{}, slotOf: map[types.Object]int{}}
	slot := 0
	bind := func(fields []*ast.Field) {
		for _, f := range fields {
			if len(f.Names) == 0 {
				slot++ // unnamed receiver/parameter still occupies its slot
				continue
			}
			for _, name := range f.Names {
				obj := fn.p.TypesInfo.Defs[name]
				if obj != nil && slot < 64 {
					w.slotOf[obj] = slot
					m := mark{params: 1 << slot}
					if k, src, ok := sourceTypeKind(obj.Type()); ok {
						m.kinds = k
						m.src = src
						m.srcPos = fn.p.Fset.Position(name.Pos())
					}
					w.cells[cellKey{obj, ""}] = m
				}
				slot++
			}
		}
	}
	if fn.fd.Recv != nil {
		bind(fn.fd.Recv.List)
	}
	if fn.fd.Type.Params != nil {
		bind(fn.fd.Type.Params.List)
	}
	return w
}

// sourceTypeKind reports whether t (possibly a pointer) is a whole source
// value; the aggregate carries every kind its fields do, so passing a
// whole request to a sink counts as keyed.
func sourceTypeKind(t types.Type) (taintKind, string, bool) {
	name, ok := sourceTypeName(t)
	if !ok {
		return 0, "", false
	}
	if _, isSource := sourceTypes[name]; !isSource {
		return 0, "", false
	}
	return taintIdentity | taintPayload, shortTypeName(name) + " value", true
}

// sourceTypeName renders the pkgpath.Type key of a (possibly pointer)
// named type.
func sourceTypeName(t types.Type) (string, bool) {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name(), true
}

// shortTypeName renders "l7.Request" from "canalmesh/internal/l7.Request".
func shortTypeName(key string) string {
	if i := strings.LastIndex(key, "/"); i >= 0 {
		return key[i+1:]
	}
	return key
}

// setCell merges m into the named cell, tracking change.
func (w *taintWalker) setCell(obj types.Object, field string, m mark) {
	if obj == nil || m.empty() {
		return
	}
	key := cellKey{obj, field}
	old := w.cells[key]
	merged := old.union(m)
	if merged != old {
		w.cells[key] = merged
		w.changed = true
	}
}

func (w *taintWalker) objOf(id *ast.Ident) types.Object {
	info := w.fn.p.TypesInfo
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// pass walks the body once, applying every transfer rule; it returns
// whether any cell or summary fact changed. With report set it also emits
// the tenantflow findings (summaries are final by then).
func (w *taintWalker) pass(report bool) bool {
	w.changed = false
	w.report = report
	ast.Inspect(w.fn.fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			w.assign(v)
		case *ast.RangeStmt:
			m := w.markExpr(v.X)
			w.assignTo(v.Key, m)
			w.assignTo(v.Value, m)
		case *ast.SendStmt:
			w.assignTo(v.Chan, w.markExpr(v.Value))
		case *ast.ReturnStmt:
			for _, r := range v.Results {
				w.mergeResult(w.markExpr(r))
			}
		case *ast.CallExpr:
			w.checkCall(v)
		}
		return true
	})
	return w.changed
}

// mergeResult folds one returned value's mark into the summary.
func (w *taintWalker) mergeResult(m mark) {
	s := w.sum
	if m.kinds&^s.resultKinds != 0 {
		s.resultKinds |= m.kinds
		w.changed = true
	}
	if s.resultSrc == "" && m.src != "" {
		s.resultSrc, s.resultSrcPos = m.src, m.srcPos
		w.changed = true
	}
	if m.params&^s.resultParams != 0 {
		s.resultParams |= m.params
		w.changed = true
	}
}

// assign applies one assignment statement: cell transfer plus the
// package-level-store rule.
func (w *taintWalker) assign(as *ast.AssignStmt) {
	// Tuple assignment from one call: every LHS gets the call's mark.
	var rhs []mark
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		m := w.markExpr(as.Rhs[0])
		for range as.Lhs {
			rhs = append(rhs, m)
		}
	} else {
		for _, r := range as.Rhs {
			rhs = append(rhs, w.markExpr(r))
		}
	}
	for i, lhs := range as.Lhs {
		if i >= len(rhs) {
			break
		}
		m := rhs[i]
		if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
			// Compound (+=, |=, ...): the old value contributes too.
			m = m.union(w.markExpr(lhs))
		}
		w.assignTo(lhs, m)
		w.globalStore(lhs, as.TokPos, m)
	}
}

// assignTo merges m into the cell(s) the LHS denotes.
func (w *taintWalker) assignTo(lhs ast.Expr, m mark) {
	if lhs == nil || m.empty() {
		return
	}
	switch v := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if v.Name == "_" {
			return
		}
		w.setCell(w.objOf(v), "", m)
	case *ast.SelectorExpr:
		if base, ok := ast.Unparen(v.X).(*ast.Ident); ok {
			obj := w.objOf(base)
			w.setCell(obj, v.Sel.Name, m)
			w.setCell(obj, "", m) // the aggregate is at least as tainted
			return
		}
		w.assignTo(v.X, m)
	case *ast.IndexExpr:
		w.assignTo(v.X, m)
	case *ast.StarExpr:
		w.assignTo(v.X, m)
	}
}

// markExpr evaluates an expression's mark. It is pure: all state changes
// happen in the statement handlers.
func (w *taintWalker) markExpr(e ast.Expr) mark {
	switch v := e.(type) {
	case *ast.Ident:
		if obj := w.objOf(v); obj != nil {
			return w.cells[cellKey{obj, ""}]
		}
	case *ast.SelectorExpr:
		return w.markSelector(v)
	case *ast.CallExpr:
		return w.markCall(v)
	case *ast.ParenExpr:
		return w.markExpr(v.X)
	case *ast.StarExpr:
		return w.markExpr(v.X)
	case *ast.UnaryExpr:
		return w.markExpr(v.X) // covers &x and <-ch
	case *ast.BinaryExpr:
		return w.markExpr(v.X).union(w.markExpr(v.Y))
	case *ast.IndexExpr:
		return w.markExpr(v.X)
	case *ast.SliceExpr:
		return w.markExpr(v.X)
	case *ast.TypeAssertExpr:
		return w.markExpr(v.X)
	case *ast.KeyValueExpr:
		return w.markExpr(v.Value)
	case *ast.CompositeLit:
		var m mark
		for _, el := range v.Elts {
			m = m.union(w.markExpr(el))
		}
		// A composite that populates a Tenant/SrcTenant field of an
		// in-module struct is tenant-keyed data by construction — the
		// keying convention sinks look for (an AccessEntry carrying
		// Tenant: travels with its key).
		if tv, ok := w.fn.p.TypesInfo.Types[v]; ok && w.inModuleType(tv.Type) {
			for _, el := range v.Elts {
				if kv, isKV := el.(*ast.KeyValueExpr); isKV {
					if key, isID := kv.Key.(*ast.Ident); isID && tenantKeyField(key.Name) {
						m.kinds |= taintIdentity
					}
				}
			}
		}
		return m
	}
	return mark{}
}

// markSelector evaluates x.f: the source-type field tables give real
// kinds; otherwise field cells, falling back to the aggregate cell.
func (w *taintWalker) markSelector(sel *ast.SelectorExpr) mark {
	info := w.fn.p.TypesInfo
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		// Package-qualified name or method value: reads of package-level
		// vars are clean by design (globalStore guards the writes).
		return mark{}
	}
	base := w.markExpr(sel.X)
	if name, ok := sourceTypeName(s.Recv()); ok {
		if fields, isSource := sourceTypes[name]; isSource {
			kind, listed := fields[sel.Sel.Name]
			if !listed {
				kind = fields[""]
			}
			// The field's kind replaces the aggregate's; only the
			// param-dependence carries over.
			return mark{
				kinds:  kind,
				params: base.params,
				src:    shortTypeName(name) + "." + sel.Sel.Name,
				srcPos: w.fn.p.Fset.Position(sel.Pos()),
			}
		}
	}
	if tenantKeyField(sel.Sel.Name) && w.inModuleType(s.Recv()) {
		// The module's keying convention: a field named Tenant/SrcTenant on
		// any in-module struct carries the tenant key (the sourceTypes
		// table already covered the request structs above).
		return mark{kinds: taintIdentity, params: base.params}
	}
	if baseID, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if obj := w.objOf(baseID); obj != nil {
			return w.cells[cellKey{obj, sel.Sel.Name}].union(w.cells[cellKey{obj, ""}])
		}
	}
	return base
}

// tenantKeyField reports whether a struct field name is the module's
// tenant-key convention.
func tenantKeyField(name string) bool {
	return name == "Tenant" || name == "SrcTenant" || name == "tenant"
}

// inModuleType reports whether t (possibly a pointer) is a named type
// declared in the module under analysis.
func (w *taintWalker) inModuleType(t types.Type) bool {
	name, ok := sourceTypeName(t)
	if !ok {
		return false
	}
	mod := w.e.g.module
	return strings.HasPrefix(name, mod+"/") || strings.HasPrefix(name, mod+".")
}

// calleeOf resolves a call's concrete callee (static function or method;
// nil for dynamic, interface, and builtin calls).
func calleeOf(p *Package, call *ast.CallExpr) *types.Func {
	if p.TypesInfo == nil {
		return nil
	}
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.TypesInfo.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel := p.TypesInfo.Selections[f]; sel != nil {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := p.TypesInfo.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// markCall evaluates a call's result mark: conversions pass through,
// in-module callees go through their summaries (a boundary returns
// clean), everything else unions the argument taints.
func (w *taintWalker) markCall(call *ast.CallExpr) mark {
	p := w.fn.p
	fun := ast.Unparen(call.Fun)
	if tv, ok := p.TypesInfo.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return w.markExpr(call.Args[0])
		}
		return mark{}
	}
	obj := calleeOf(p, call)
	if obj == nil {
		return w.argUnion(call)
	}
	key := funcKey(obj)
	if key == headerGetKey {
		pos := w.fn.p.Fset.Position(call.Pos())
		if len(call.Args) == 1 && constStringIs(p, call.Args[0], tenantHeaderValue) {
			return mark{kinds: taintIdentity, src: "the " + tenantHeaderValue + " header", srcPos: pos}
		}
		m := w.argUnion(call)
		m.kinds |= taintPayload
		if m.src == "" {
			m.src, m.srcPos = "http.Header.Get", pos
		}
		return m
	}
	if sum, ok := w.e.sums[key]; ok {
		if sum.boundary {
			return mark{}
		}
		var m mark
		if sum.resultKinds != 0 {
			m = mark{kinds: sum.resultKinds, src: sum.resultSrc, srcPos: sum.resultSrcPos}
		}
		for i, am := range w.callSlotMarks(call, obj) {
			if sum.resultParams&(1<<i) != 0 {
				m = m.union(am)
			}
		}
		return m
	}
	return w.argUnion(call)
}

// argUnion is the conservative rule for calls without a summary: the
// result carries whatever the receiver and arguments did.
func (w *taintWalker) argUnion(call *ast.CallExpr) mark {
	var m mark
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s := w.fn.p.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
			m = m.union(w.markExpr(sel.X))
		}
	}
	for _, arg := range call.Args {
		m = m.union(w.markExpr(arg))
	}
	return m
}

// callSlotMarks computes the per-slot argument marks for a resolved call,
// matching the slot numbering summaries use (receiver first, variadic
// arguments folded into the last slot).
func (w *taintWalker) callSlotMarks(call *ast.CallExpr, obj *types.Func) []mark {
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	off := 0
	var slots []mark
	if sig.Recv() != nil {
		off = 1
		var rm mark
		if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
			if s := w.fn.p.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
				rm = w.markExpr(sel.X)
			}
		}
		slots = append(slots, rm)
	}
	n := sig.Params().Len()
	for i := 0; i < n; i++ {
		slots = append(slots, mark{})
	}
	for i, arg := range call.Args {
		slot := off + i
		if sig.Variadic() && i >= n-1 {
			slot = off + n - 1
		}
		if slot < len(slots) {
			slots[slot] = slots[slot].union(w.markExpr(arg))
		}
	}
	return slots
}

// checkCall applies the call-site rules: sink checks and paramSink lifting
// through in-module summaries.
func (w *taintWalker) checkCall(call *ast.CallExpr) {
	p := w.fn.p
	if tv, ok := p.TypesInfo.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		return
	}
	obj := calleeOf(p, call)
	if obj == nil {
		return
	}
	key := funcKey(obj)
	if desc, ok := taintSinks[key]; ok {
		w.sinkCall(call, obj, desc)
	}
	sum, ok := w.e.sums[key]
	if !ok || sum.boundary || len(sum.paramSinks) == 0 {
		return
	}
	slots := w.callSlotMarks(call, obj)
	for _, ps := range sum.paramSinks {
		var agg mark
		for i, m := range slots {
			if ps.params&(1<<i) != 0 {
				agg = agg.union(m)
			}
		}
		if agg.kinds&taintIdentity != 0 {
			continue // the tenant key travels along: keyed
		}
		chain := w.e.g.shortKey(key)
		if ps.chain != "" {
			chain += " -> " + ps.chain
		}
		if agg.kinds&taintPayload != 0 && w.report {
			w.reportTenantFlow(call.Lparen, agg, ps.sink, chain)
		}
		if agg.params != 0 {
			if w.sum.addParamSink(agg.params, ps.sink, chain) {
				w.changed = true
			}
		}
	}
}

// sinkCall applies the direct-sink rule: payload without identity among
// the call's values is a leak; parameter-dependent taint lifts into the
// summary for the callers to judge.
func (w *taintWalker) sinkCall(call *ast.CallExpr, obj *types.Func, desc string) {
	var agg mark
	for _, m := range w.callSlotMarks(call, obj) {
		agg = agg.union(m)
	}
	if agg.kinds&taintIdentity != 0 {
		return // keyed by the tenant in the same call
	}
	if agg.kinds&taintPayload != 0 && w.report {
		w.reportTenantFlow(call.Lparen, agg, desc, "")
	}
	if agg.params != 0 {
		sink := desc + " at " + baseLine(w.fn.p.Fset.Position(call.Lparen).Filename, w.fn.p.Fset.Position(call.Lparen).Line)
		if w.sum.addParamSink(agg.params, sink, "") {
			w.changed = true
		}
	}
}

// reportTenantFlow emits one tenantflow finding.
func (w *taintWalker) reportTenantFlow(pos token.Pos, m mark, sink, chain string) {
	src := m.src
	if src == "" {
		src = "request data"
	} else if m.srcPos.IsValid() {
		src += " (" + baseLine(m.srcPos.Filename, m.srcPos.Line) + ")"
	}
	msg := fmt.Sprintf("tenant payload from %s reaches %s without a tenant key", src, sink)
	if chain != "" {
		msg += " (via " + chain + ")"
	}
	w.e.findings = append(w.e.findings, Diagnostic{
		Pos:     w.fn.p.Fset.Position(pos),
		Message: msg,
	})
}

// globalStore applies the package-level-store rule to an assignment
// target: source-derived payload stored in module state is a leak unless
// the tenant key travels with it, in the value or as the store's index.
func (w *taintWalker) globalStore(lhs ast.Expr, pos token.Pos, value mark) {
	gv, keyExpr := w.globalTarget(lhs)
	if gv == nil {
		return
	}
	keyed := keyExpr != nil && w.markExpr(keyExpr).kinds&taintIdentity != 0
	if !w.report || keyed || value.kinds&taintPayload == 0 || value.kinds&taintIdentity != 0 {
		return
	}
	src := value.src
	if src == "" {
		src = "request data"
	} else if value.srcPos.IsValid() {
		src += " (" + baseLine(value.srcPos.Filename, value.srcPos.Line) + ")"
	}
	w.e.findings = append(w.e.findings, Diagnostic{
		Pos: w.fn.p.Fset.Position(pos),
		Message: fmt.Sprintf("tenant payload from %s stored in package-level %s without a tenant key",
			src, w.e.g.shortKey(gv.Pkg().Path()+"."+gv.Name())),
	})
}

// globalTarget resolves an assignment LHS to the package-level variable it
// mutates (nil when it is not one), plus the index key expression when the
// write is a direct map/slice store into the variable.
func (w *taintWalker) globalTarget(lhs ast.Expr) (*types.Var, ast.Expr) {
	var keyExpr ast.Expr
	e := ast.Unparen(lhs)
	for {
		switch v := e.(type) {
		case *ast.IndexExpr:
			keyExpr = v.Index
			e = ast.Unparen(v.X)
			continue
		case *ast.SelectorExpr:
			// pkg.Var or global.field: resolve the selected object first.
			if obj, ok := w.fn.p.TypesInfo.Uses[v.Sel].(*types.Var); ok && isPackageVar(obj) {
				return w.moduleVar(obj), keyExpr
			}
			keyExpr = nil
			e = ast.Unparen(v.X)
			continue
		case *ast.StarExpr:
			keyExpr = nil
			e = ast.Unparen(v.X)
			continue
		case *ast.Ident:
			if obj, ok := w.objOf(v).(*types.Var); ok && isPackageVar(obj) {
				return w.moduleVar(obj), keyExpr
			}
			return nil, nil
		default:
			return nil, nil
		}
	}
}

// isPackageVar reports whether obj is a package-scope variable.
func isPackageVar(v *types.Var) bool {
	return !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// moduleVar filters to variables of the module under analysis.
func (w *taintWalker) moduleVar(v *types.Var) *types.Var {
	mod := w.e.g.module
	path := v.Pkg().Path()
	if path == mod || strings.HasPrefix(path, mod+"/") {
		return v
	}
	return nil
}

// constStringIs reports whether e is a string constant with the value s.
func constStringIs(p *Package, e ast.Expr, s string) bool {
	if p.TypesInfo == nil {
		return false
	}
	tv, ok := p.TypesInfo.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return false
	}
	return constant.StringVal(tv.Value) == s
}
