package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural layer of the engine: a CHA-style call
// graph built from the shared types.Info across all three checking units
// (typecheck.go). One node per named function or method; edges for static
// calls, interface-method calls resolved by class-hierarchy analysis
// (every in-module concrete type implementing the interface), and
// function/method values referenced outside call position (a reference is
// treated as a may-call edge, since the value is typically invoked later).
// Function-literal bodies attribute to the enclosing named function, so a
// closure scheduled on the event loop counts as reachable from its
// creator, and package-level variable initialisers attribute to their
// package's init node, where the compiler runs them. Calls through plain
// function-typed variables and fields stay unresolved: tracking those needs
// data flow the engine deliberately does not attempt.
//
// While walking each body the builder also records the primitive facts the
// interprocedural analyzers consume — heap allocations (escaping composite
// literals, make/new, append growth, string concatenation and conversions,
// interface boxing at call sites), mutex acquisitions, channel operations,
// calls into banned packages, wall-clock reads, and global math/rand draws.
//
// Nodes are keyed by (package path, receiver, name) strings, never by
// types.Object identity: the augmented and external-test units re-check
// declarations under fresh objects (see typecheck.go), and string keys
// unify them. All node and edge orderings are deterministic (sorted keys,
// source-order edges), so every traversal — and therefore every diagnostic
// — is byte-stable across runs.

// FactKind classifies a primitive behavior observed in a function body.
type FactKind int

const (
	// FactAlloc is a heap allocation (or probable one, e.g. append growth).
	FactAlloc FactKind = iota
	// FactLock is a sync.Mutex/RWMutex acquisition.
	FactLock
	// FactChan is a blocking channel operation (send, receive, select, range).
	FactChan
	// FactBanned is a call into a package banned on hot paths (fmt, reflect,
	// regexp).
	FactBanned
	// FactWallClock is a wall-clock read or wait (time.Now, time.Sleep, ...).
	FactWallClock
	// FactGlobalRand is a draw from the global math/rand source.
	FactGlobalRand
)

// Fact is one primitive behavior at one position.
type Fact struct {
	Kind     FactKind
	Position token.Position
	// What is the human-readable description ("append may grow its backing
	// array", "calls fmt.Sprintf", "time.Now reads the wall clock", ...).
	What string
	// callee is the standard-library function behind a FactWallClock or
	// FactGlobalRand fact, for analyzers that word the finding themselves.
	callee *types.Func
}

// CallEdge is one resolved call or function-value reference.
type CallEdge struct {
	Callee string // key of the callee node (may be absent from the graph)
	// Iface marks an edge resolved by CHA over an interface method call.
	Iface bool
	// Ref marks a function/method value referenced outside call position.
	Ref bool
}

// FuncNode is one named function or method of the module.
type FuncNode struct {
	Key   string
	Dir   string // module-relative package directory
	Test  bool   // declared in a _test.go file
	Hot   bool   // annotated //canal:hotpath
	Calls []CallEdge
	Facts []Fact
}

// CallGraph is the module's interprocedural index.
type CallGraph struct {
	module string
	Nodes  map[string]*FuncNode
	keys   []string // sorted node keys
}

// Keys returns the node keys in sorted order.
func (g *CallGraph) Keys() []string { return g.keys }

// shortKey strips the module prefix off a node key for messages.
func (g *CallGraph) shortKey(key string) string {
	if rest, ok := strings.CutPrefix(key, g.module+"/"); ok {
		return rest
	}
	return strings.TrimPrefix(key, g.module+".")
}

// hotRoots returns the //canal:hotpath-annotated non-test nodes, sorted.
func (g *CallGraph) hotRoots() []*FuncNode {
	var roots []*FuncNode
	for _, k := range g.keys {
		if n := g.Nodes[k]; n.Hot && !n.Test {
			roots = append(roots, n)
		}
	}
	return roots
}

// reach runs a BFS from start over non-test nodes and returns every
// visited key mapped to its BFS predecessor (start maps to ""), for chain
// reconstruction. Ref edges participate: a referenced function is assumed
// callable.
func (g *CallGraph) reach(start string) map[string]string {
	seen := map[string]string{start: ""}
	queue := []string{start}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		n := g.Nodes[key]
		if n == nil {
			continue
		}
		for _, e := range n.Calls {
			cn := g.Nodes[e.Callee]
			if cn == nil || cn.Test {
				continue
			}
			if _, ok := seen[e.Callee]; ok {
				continue
			}
			seen[e.Callee] = key
			queue = append(queue, e.Callee)
		}
	}
	return seen
}

// Reachable returns the sorted keys of every function reachable from
// start (excluding start itself): the set hotpath walks from a root.
func (g *CallGraph) Reachable(start string) []string {
	seen := g.reach(start)
	delete(seen, start)
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// chain renders the call chain from start to key as "A -> B -> C" using
// short names ("" when key is start itself).
func (g *CallGraph) chain(seen map[string]string, start, key string) string {
	var parts []string
	for k := key; k != start; k = seen[k] {
		parts = append(parts, g.shortKey(k))
	}
	parts = append(parts, g.shortKey(start))
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " -> ")
}

// bannedPkgs are the packages hot paths must not call into at request time:
// fmt formats through reflection and allocates; reflect defeats every
// static guarantee; regexp matching allocates and is unbounded.
var bannedPkgs = map[string]bool{"fmt": true, "reflect": true, "regexp": true}

// wallClockFuncs are the package time functions that read or wait on the
// wall clock. Conversions and constructors (time.Duration, time.Unix,
// time.Date) are pure and stay allowed.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// randConstructors are the math/rand package-level functions that build
// explicit sources rather than drawing from the shared global one.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// BuildCallGraph constructs the interprocedural index over the packages.
// The packages must already be type-checked (TypeCheck); packages with
// partial type information degrade to fewer edges, never to wrong ones.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{Nodes: map[string]*FuncNode{}}
	if len(pkgs) == 0 {
		return g
	}
	g.module = pkgs[0].Module
	if g.module == "" {
		g.module = DefaultModule
	}
	b := &gbuilder{g: g, byPath: map[string]*Package{}}
	ordered := make([]*Package, len(pkgs))
	copy(ordered, pkgs)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Dir < ordered[j].Dir })
	for _, p := range ordered {
		b.byPath[p.ImportPath()] = p
	}
	b.indexConcreteTypes(ordered)
	for _, p := range ordered {
		for _, sf := range p.Files {
			for _, decl := range sf.AST.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body != nil {
						b.addFunc(p, sf, d)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						b.addVarInits(p, sf, d)
					}
				}
			}
		}
	}
	g.keys = make([]string, 0, len(g.Nodes))
	for k := range g.Nodes {
		g.keys = append(g.keys, k)
	}
	sort.Strings(g.keys)
	return g
}

// gbuilder carries build state.
type gbuilder struct {
	g      *CallGraph
	byPath map[string]*Package
	// concrete holds every non-interface named type in the module, import-
	// view objects first (identity-stable across checking units), in
	// deterministic order, for CHA interface resolution.
	concrete []*types.Named
	// ifaceMemo caches CHA resolutions per (interface, method).
	ifaceMemo map[ifaceQuery][]string
}

type ifaceQuery struct {
	iface  *types.Interface
	method string
}

// indexConcreteTypes collects the module's named non-interface types. The
// import view of each package supplies identity-stable objects; test-only
// types (absent from the import view) are added from Defs as best effort.
func (b *gbuilder) indexConcreteTypes(pkgs []*Package) {
	b.ifaceMemo = map[ifaceQuery][]string{}
	seen := map[string]bool{}
	add := func(tn *types.TypeName) {
		if tn == nil || tn.IsAlias() {
			return
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			return
		}
		key := tn.Pkg().Path() + "." + tn.Name()
		if seen[key] {
			return
		}
		seen[key] = true
		b.concrete = append(b.concrete, named)
	}
	for _, p := range pkgs {
		if p.TypesPkg == nil {
			continue
		}
		scope := p.TypesPkg.Scope()
		for _, name := range scope.Names() { // Names() is sorted
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn)
			}
		}
	}
	// Test-unit types, in source order.
	for _, p := range pkgs {
		if p.TypesInfo == nil {
			continue
		}
		for _, sf := range p.Files {
			if !sf.Test {
				continue
			}
			for _, decl := range sf.AST.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if tn, ok := p.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
							add(tn)
						}
					}
				}
			}
		}
	}
}

// funcKey renders the unit-independent node key for a function object.
func funcKey(obj *types.Func) string {
	path := ""
	if obj.Pkg() != nil {
		path = obj.Pkg().Path()
	}
	sig, ok := obj.Type().(*types.Signature)
	if ok {
		if recv := sig.Recv(); recv != nil {
			t := recv.Type()
			star := ""
			if ptr, isPtr := types.Unalias(t).(*types.Pointer); isPtr {
				t = ptr.Elem()
				star = "*"
			}
			if named, isNamed := types.Unalias(t).(*types.Named); isNamed {
				return path + ".(" + star + named.Obj().Name() + ")." + obj.Name()
			}
			return path + ".(?)." + obj.Name()
		}
	}
	return path + "." + obj.Name()
}

// hotpathMarker annotates a function whose body — and everything reachable
// from it — must stay allocation-, lock-, and block-free at request time.
const hotpathMarker = "//canal:hotpath"

// isHotpathDoc reports whether the declaration's doc comment carries the
// //canal:hotpath directive.
func isHotpathDoc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == hotpathMarker || strings.HasPrefix(c.Text, hotpathMarker+" ") {
			return true
		}
	}
	return false
}

// addFunc creates the node for one declared function and analyzes its body.
func (b *gbuilder) addFunc(p *Package, sf SourceFile, fd *ast.FuncDecl) {
	key := ""
	if p.TypesInfo != nil {
		if obj, ok := p.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			key = funcKey(obj)
		}
	}
	if key == "" {
		// Degraded type information: fall back to a syntactic key.
		key = p.ImportPath() + "." + fd.Name.Name
	}
	n := b.node(p, sf, key)
	if isHotpathDoc(fd.Doc) {
		n.Hot = true
	}
	(&funcBuilder{b: b, p: p, n: n}).analyze(fd.Body)
}

// addVarInits analyzes the initialisers of one package-level var
// declaration into the init node of the file's package: `var epoch =
// time.Now()` runs at program start exactly as a statement in func init
// would, so its facts and edges belong to the same node.
func (b *gbuilder) addVarInits(p *Package, sf SourceFile, gd *ast.GenDecl) {
	path := p.ImportPath()
	if sf.AST.Name.Name == p.baseName()+"_test" {
		path += "_test"
	}
	for _, spec := range gd.Specs {
		for _, v := range spec.(*ast.ValueSpec).Values {
			(&funcBuilder{b: b, p: p, n: b.node(p, sf, path+".init")}).analyze(v)
		}
	}
}

// node returns the graph node for key, creating it on first sight.
// Several declarations can share a key (every func init of a package, and
// its var initialisers); the node is a test node only while every one of
// them sits in a _test.go file.
func (b *gbuilder) node(p *Package, sf SourceFile, key string) *FuncNode {
	n := b.g.Nodes[key]
	if n == nil {
		n = &FuncNode{Key: key, Dir: p.Dir, Test: sf.Test}
		b.g.Nodes[key] = n
	}
	if !sf.Test {
		n.Test = false
	}
	return n
}

// funcBuilder walks one function body.
type funcBuilder struct {
	b *gbuilder
	p *Package
	n *FuncNode
}

func (fb *funcBuilder) fact(kind FactKind, pos token.Pos, what string) *Fact {
	fb.n.Facts = append(fb.n.Facts, Fact{
		Kind:     kind,
		Position: fb.p.Fset.Position(pos),
		What:     what,
	})
	return &fb.n.Facts[len(fb.n.Facts)-1]
}

func (fb *funcBuilder) edge(callee string, iface, ref bool) {
	fb.n.Calls = append(fb.n.Calls, CallEdge{Callee: callee, Iface: iface, Ref: ref})
}

// analyze walks a function body or initialiser expression, collecting
// edges and facts.
func (fb *funcBuilder) analyze(body ast.Node) {
	walkWithStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			fb.call(v)
		case *ast.Ident:
			fb.funcValueRef(v, stack)
		case *ast.SendStmt:
			fb.fact(FactChan, v.Arrow, "channel send may block")
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				fb.fact(FactChan, v.OpPos, "channel receive may block")
			}
		case *ast.SelectStmt:
			fb.fact(FactChan, v.Select, "select blocks on channel operations")
		case *ast.RangeStmt:
			if t := fb.p.typeOf(v.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					fb.fact(FactChan, v.For, "range over a channel blocks")
				}
			}
		case *ast.CompositeLit:
			fb.composite(v, stack)
		case *ast.BinaryExpr:
			if v.Op == token.ADD {
				fb.stringConcat(v, stack)
			}
		case *ast.AssignStmt:
			if v.Tok == token.ADD_ASSIGN && len(v.Lhs) == 1 {
				if t := fb.p.typeOf(v.Lhs[0]); t != nil && isStringType(t) {
					fb.fact(FactAlloc, v.TokPos, "string += concatenation allocates")
				}
			}
		}
		return true
	})
}

// call resolves one call expression: edges, banned/nondeterminism facts,
// builtin allocations, conversions, boxing, and lock acquisitions.
func (fb *funcBuilder) call(call *ast.CallExpr) {
	p := fb.p
	fun := ast.Unparen(call.Fun)
	// Conversions (including to interface types, which box).
	if p.TypesInfo != nil {
		if tv, ok := p.TypesInfo.Types[fun]; ok && tv.IsType() {
			fb.conversion(call, tv.Type)
			return
		}
	}
	switch f := fun.(type) {
	case *ast.Ident:
		if p.TypesInfo == nil {
			return
		}
		switch obj := p.TypesInfo.Uses[f].(type) {
		case *types.Builtin:
			fb.builtin(obj.Name(), call)
		case *types.Func:
			fb.callee(obj, call, false)
		}
	case *ast.SelectorExpr:
		if p.TypesInfo == nil {
			return
		}
		if sel := p.TypesInfo.Selections[f]; sel != nil {
			if sel.Kind() != types.MethodVal {
				return // field of function type: dynamic, unresolved
			}
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return
			}
			if recv := sel.Recv(); recv != nil && types.IsInterface(recv) {
				fb.ifaceCall(recv, m, false)
				fb.boxing(call, m)
				return
			}
			fb.lockCall(call, f, m)
			fb.callee(m, call, false)
			return
		}
		// Package-qualified function: pkg.Fn(...).
		if obj, ok := p.TypesInfo.Uses[f.Sel].(*types.Func); ok {
			fb.callee(obj, call, false)
		}
	}
}

// callee records the edge and facts for a resolved concrete callee.
func (fb *funcBuilder) callee(obj *types.Func, call *ast.CallExpr, ref bool) {
	pos := call.Lparen
	path := funcPkgPath(obj)
	switch {
	case bannedPkgs[path]:
		fb.fact(FactBanned, pos, "calls "+displayFunc(obj))
	case path == "time" && recvOf(obj) == nil && wallClockFuncs[obj.Name()]:
		fb.fact(FactWallClock, call.Pos(), "time."+obj.Name()+" reads or waits on the wall clock").callee = obj
	case (path == "math/rand" || path == "math/rand/v2") && recvOf(obj) == nil && !randConstructors[obj.Name()]:
		fb.fact(FactGlobalRand, call.Pos(), "rand."+obj.Name()+" draws from the global math/rand source").callee = obj
	}
	if fb.p.inModule(path) {
		fb.edge(funcKey(obj), false, ref)
	}
	if !ref {
		fb.boxing(call, obj)
	}
}

// ifaceCall fans an interface method call out to every in-module concrete
// implementation (class-hierarchy analysis).
func (fb *funcBuilder) ifaceCall(recv types.Type, m *types.Func, ref bool) {
	iface, ok := fb.canonicalIface(recv)
	if !ok {
		return
	}
	q := ifaceQuery{iface: iface, method: m.Name()}
	targets, ok := fb.b.ifaceMemo[q]
	if !ok {
		for _, named := range fb.b.concrete {
			if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), m.Name())
			if impl, ok := obj.(*types.Func); ok {
				targets = append(targets, funcKey(impl))
			}
		}
		sort.Strings(targets)
		fb.b.ifaceMemo[q] = targets
	}
	for _, t := range targets {
		fb.edge(t, true, ref)
	}
}

// canonicalIface maps an interface type to its import-view object when the
// interface is a named in-module type, so Implements compares method
// signatures against identity-stable objects (see typecheck.go on why the
// augmented units mint fresh ones).
func (fb *funcBuilder) canonicalIface(t types.Type) (*types.Interface, bool) {
	if named, ok := types.Unalias(t).(*types.Named); ok {
		obj := named.Obj()
		if obj != nil && obj.Pkg() != nil {
			if p, inMod := fb.b.byPath[obj.Pkg().Path()]; inMod && p.TypesPkg != nil {
				if tn, ok := p.TypesPkg.Scope().Lookup(obj.Name()).(*types.TypeName); ok {
					if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
						return iface, true
					}
				}
			}
		}
	}
	iface, ok := t.Underlying().(*types.Interface)
	return iface, ok
}

// funcValueRef records a may-call edge for a function or method referenced
// outside call position (method values, callbacks passed as arguments).
func (fb *funcBuilder) funcValueRef(id *ast.Ident, stack []ast.Node) {
	p := fb.p
	if p.TypesInfo == nil {
		return
	}
	obj, ok := p.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return
	}
	// Skip idents already handled as the function position of a call.
	if len(stack) > 0 {
		parent := stack[len(stack)-1]
		if sel, ok := parent.(*ast.SelectorExpr); ok {
			if sel.Sel != id {
				return // the X of a selector, not the function
			}
			if len(stack) > 1 {
				if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && ast.Unparen(call.Fun) == sel {
					return
				}
			}
			// Method value: resolve like a call, including CHA fan-out.
			if s := p.TypesInfo.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
				if recv := s.Recv(); recv != nil && types.IsInterface(recv) {
					fb.ifaceCall(recv, obj, true)
					return
				}
			}
			fb.refEdge(obj, id.Pos())
			return
		}
		if call, ok := parent.(*ast.CallExpr); ok && ast.Unparen(call.Fun) == id {
			return
		}
	}
	fb.refEdge(obj, id.Pos())
}

func (fb *funcBuilder) refEdge(obj *types.Func, pos token.Pos) {
	path := funcPkgPath(obj)
	if bannedPkgs[path] {
		fb.fact(FactBanned, pos, "references "+displayFunc(obj))
	}
	if fb.p.inModule(path) {
		fb.edge(funcKey(obj), false, true)
	}
}

// builtin records allocation facts for make/new/append.
func (fb *funcBuilder) builtin(name string, call *ast.CallExpr) {
	switch name {
	case "make":
		fb.fact(FactAlloc, call.Lparen, "make allocates")
	case "new":
		fb.fact(FactAlloc, call.Lparen, "new allocates")
	case "append":
		fb.fact(FactAlloc, call.Lparen, "append may grow its backing array")
	}
}

// conversion records allocation facts for allocating conversions: string
// <-> []byte/[]rune, and boxing into an interface type.
func (fb *funcBuilder) conversion(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	src := fb.p.typeOf(call.Args[0])
	if src == nil {
		return
	}
	if types.IsInterface(target) {
		if !types.IsInterface(src) && boxAllocates(src) && !fb.p.isConst(call.Args[0]) {
			fb.fact(FactAlloc, call.Lparen, "conversion boxes "+src.String()+" into an interface")
		}
		return
	}
	if isStringType(target) && isByteOrRuneSlice(src) || isByteOrRuneSlice(target) && isStringType(src) {
		fb.fact(FactAlloc, call.Lparen, "string/slice conversion copies and allocates")
	}
}

// boxing flags arguments whose concrete values box into interface
// parameters at the call site.
func (fb *funcBuilder) boxing(call *ast.CallExpr, obj *types.Func) {
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Params() == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := fb.p.typeOf(arg)
		if at == nil || types.IsInterface(at) || !boxAllocates(at) {
			continue
		}
		if tv, ok := fb.p.TypesInfo.Types[arg]; ok && tv.IsNil() {
			continue
		}
		fb.fact(FactAlloc, arg.Pos(), "argument boxes "+at.String()+" into interface parameter of "+displayFunc(obj))
	}
}

// composite records allocation facts for composite literals: slice and map
// literals allocate their backing store; a literal whose address is taken
// escapes to the heap.
func (fb *funcBuilder) composite(cl *ast.CompositeLit, stack []ast.Node) {
	if len(stack) > 0 {
		if _, inLit := stack[len(stack)-1].(*ast.CompositeLit); inLit {
			return // element of an outer literal; the outer one is the alloc
		}
		if kv, ok := stack[len(stack)-1].(*ast.KeyValueExpr); ok && len(stack) > 1 {
			if _, inLit := stack[len(stack)-2].(*ast.CompositeLit); inLit && kv.Value == cl {
				return
			}
		}
		if ue, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && ue.Op == token.AND {
			fb.fact(FactAlloc, ue.OpPos, "&composite literal escapes to the heap")
			return
		}
	}
	t := fb.p.typeOf(cl)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		fb.fact(FactAlloc, cl.Lbrace, "slice literal allocates its backing array")
	case *types.Map:
		fb.fact(FactAlloc, cl.Lbrace, "map literal allocates")
	}
}

// stringConcat flags runtime string concatenation (topmost + of a chain).
func (fb *funcBuilder) stringConcat(be *ast.BinaryExpr, stack []ast.Node) {
	t := fb.p.typeOf(be)
	if t == nil || !isStringType(t) || fb.p.isConst(be) {
		return
	}
	if len(stack) > 0 {
		if parent, ok := stack[len(stack)-1].(*ast.BinaryExpr); ok && parent.Op == token.ADD {
			if pt := fb.p.typeOf(parent); pt != nil && isStringType(pt) {
				return // inner term of a larger concatenation
			}
		}
	}
	fb.fact(FactAlloc, be.OpPos, "string concatenation allocates")
}

// lockCall records a lock fact for a sync.Mutex or sync.RWMutex
// acquisition.
func (fb *funcBuilder) lockCall(call *ast.CallExpr, sel *ast.SelectorExpr, m *types.Func) {
	if m.Pkg() == nil || m.Pkg().Path() != "sync" {
		return
	}
	recv := recvOf(m)
	if recv == nil {
		return
	}
	rt := recv.Type()
	if ptr, ok := types.Unalias(rt).(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := types.Unalias(rt).(*types.Named)
	if !ok || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return
	}
	what := "acquires "
	switch m.Name() {
	case "Lock", "TryLock":
	case "RLock", "TryRLock":
		what = "read-locks "
	default:
		return
	}
	fb.fact(FactLock, call.Lparen, what+exprString(sel.X)+" (sync."+named.Obj().Name()+")")
}

// recvOf returns a function's receiver variable, or nil.
func recvOf(obj *types.Func) *types.Var {
	if sig, ok := obj.Type().(*types.Signature); ok {
		return sig.Recv()
	}
	return nil
}

// displayFunc renders a callee for messages: "fmt.Sprintf",
// "regexp.(*Regexp).MatchString".
func displayFunc(obj *types.Func) string {
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Name() + "."
	}
	if recv := recvOf(obj); recv != nil {
		t := recv.Type()
		star := ""
		if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
			t = ptr.Elem()
			star = "*"
		}
		if named, ok := types.Unalias(t).(*types.Named); ok {
			return pkg + "(" + star + named.Obj().Name() + ")." + obj.Name()
		}
	}
	return pkg + obj.Name()
}

// isStringType reports whether t's underlying type is string.
func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// isByteOrRuneSlice reports whether t is []byte or []rune under the hood.
func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// boxAllocates reports whether boxing a value of type t into an interface
// heap-allocates. Pointer-shaped types (pointers, channels, maps,
// functions, unsafe pointers) fit the interface word directly.
func boxAllocates(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Interface:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	}
	return true
}
