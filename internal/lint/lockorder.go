package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// LockOrder builds a module-wide lock-acquisition-order graph and reports
// cycles. Nodes are lock classes — "pkg.Type.field" for struct-held
// sync.Mutex/RWMutex (embedded fields keep their path) or "pkg.var" for
// package-level ones. An edge A → B is recorded when a function acquires B
// (directly, or anywhere down its call graph) while holding A, with the
// hold range approximated intraprocedurally (acquisition to the earliest
// non-deferred Unlock of the same expression, else end of body). Two
// classes locked in both orders on different paths can interleave into a
// deadlock at runtime; the diagnostic spells out both acquisition chains.
//
// The class abstraction conflates instances: distinct values of the same
// type share a class, so nested same-class acquisitions through different
// expressions are not treated as self-cycles (instance identity is beyond
// static reach). Re-acquiring the *same expression* while held, directly
// or through a call chain, is reported — for a Mutex that is a guaranteed
// self-deadlock, and a nested RLock deadlocks once a writer queues between
// the two.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name:      "lockorder",
		Doc:       "report lock-order cycles and self-reacquisition across the module-wide lock-acquisition graph",
		runModule: func(m *module) []Diagnostic { return m.callGraph().lockorderFindings() },
	}
}

// lockWitness is the evidence for one lock-graph edge: holder acquired
// `from` and then — directly at `second`, or by calling `callee` — took
// `to` while still holding it.
type lockWitness struct {
	holder   string
	from     LockSite
	to       string
	position token.Position // where the second acquisition (or the call) happens
	callee   string         // "" when the second lock is taken directly in holder
	second   token.Position // direct second acquisition site (callee == "")
}

// lockorderFindings computes the module-wide lockorder diagnostics.
func (g *CallGraph) lockorderFindings() []Diagnostic {
	var diags []Diagnostic

	reachMemo := map[string]map[string]walkStep{}
	reachOf := func(key string) map[string]walkStep {
		r, ok := reachMemo[key]
		if !ok {
			r = g.reach(key, nil)
			reachMemo[key] = r
		}
		return r
	}
	// taOf: lock classes acquired anywhere in the call graph below key
	// (including key itself), test nodes excluded.
	taMemo := map[string]map[string]bool{}
	taOf := func(key string) map[string]bool {
		t, ok := taMemo[key]
		if ok {
			return t
		}
		t = map[string]bool{}
		for k := range reachOf(key) {
			n := g.Nodes[k]
			if n == nil || n.Test {
				continue
			}
			for _, ls := range n.Locks {
				t[ls.Class] = true
			}
		}
		taMemo[key] = t
		return t
	}

	// Build the class graph. Deterministic: nodes in sorted key order, lock
	// sites and call edges in source order, transitive classes sorted; the
	// first witness for an (A, B) edge wins.
	adj := map[string]map[string]*lockWitness{}
	addEdge := func(w *lockWitness) {
		m := adj[w.from.Class]
		if m == nil {
			m = map[string]*lockWitness{}
			adj[w.from.Class] = m
		}
		if m[w.to] == nil {
			m[w.to] = w
		}
	}
	for _, key := range g.keys {
		n := g.Nodes[key]
		if n.Test {
			continue
		}
		for i := range n.Locks {
			held := n.Locks[i]
			// Direct nested acquisitions inside the hold range.
			for j := range n.Locks {
				next := n.Locks[j]
				if next.Pos <= held.Pos || next.Position.Offset >= held.EndOff {
					continue
				}
				if next.Expr == held.Expr {
					what := "self-deadlock: " + held.Expr + " is already held (acquired at " +
						baseLine(held.Position.Filename, held.Position.Line) + ") when locked again"
					if held.Read && next.Read {
						what = "nested RLock of " + held.Expr + " (read-locked at " +
							baseLine(held.Position.Filename, held.Position.Line) +
							") deadlocks once a writer queues between the two"
					}
					diags = append(diags, Diagnostic{Pos: next.Position, Message: what})
					continue
				}
				if next.Class == held.Class {
					continue // distinct instances of one class: no order defined
				}
				addEdge(&lockWitness{
					holder:   key,
					from:     held,
					to:       next.Class,
					position: next.Position,
					second:   next.Position,
				})
			}
			// Calls made while holding: everything the callee's subgraph
			// locks is ordered after the held class.
			for _, e := range n.Calls {
				if e.Position.Filename != held.Position.Filename ||
					e.Position.Offset <= held.Position.Offset || e.Position.Offset >= held.EndOff {
					continue
				}
				cn := g.Nodes[e.Callee]
				if cn == nil || cn.Test {
					continue
				}
				classes := make([]string, 0, len(taOf(e.Callee)))
				for c := range taOf(e.Callee) {
					classes = append(classes, c)
				}
				sort.Strings(classes)
				for _, c := range classes {
					if c == held.Class {
						chain, leaf := g.lockLeaf(e.Callee, c, reachOf)
						diags = append(diags, Diagnostic{
							Pos: e.Position,
							Message: fmt.Sprintf("call into %s reacquires %s held since %s (chain %s, locked at %s): potential self-deadlock",
								g.shortKey(e.Callee), g.shortKey(c),
								baseLine(held.Position.Filename, held.Position.Line),
								chain, baseLine(leaf.Filename, leaf.Line)),
						})
						continue
					}
					addEdge(&lockWitness{
						holder:   key,
						from:     held,
						to:       c,
						position: e.Position,
						callee:   e.Callee,
					})
				}
			}
		}
	}

	// Class-level reachability, then report each direct edge that closes a
	// cycle: A → B directly while B reaches A.
	classes := make([]string, 0, len(adj))
	for c := range adj {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	creach := map[string]map[string]bool{}
	for _, c := range classes {
		seen := map[string]bool{}
		queue := []string{c}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			targets := make([]string, 0, len(adj[cur]))
			for t := range adj[cur] {
				targets = append(targets, t)
			}
			sort.Strings(targets)
			for _, t := range targets {
				if !seen[t] {
					seen[t] = true
					queue = append(queue, t)
				}
			}
		}
		creach[c] = seen
	}
	for _, a := range classes {
		targets := make([]string, 0, len(adj[a]))
		for t := range adj[a] {
			targets = append(targets, t)
		}
		sort.Strings(targets)
		for _, bc := range targets {
			if bc == a || !creach[bc][a] {
				continue
			}
			w := adj[a][bc]
			diags = append(diags, Diagnostic{
				Pos: w.position,
				Message: fmt.Sprintf("lock-order cycle between %s and %s: %s; reverse order: %s — the two orders can interleave into a deadlock",
					g.shortKey(a), g.shortKey(bc),
					g.legString(w, reachOf),
					g.pathString(bc, a, adj, reachOf)),
			})
		}
	}
	return diags
}

// lockLeaf finds, below start, the function that directly acquires class,
// returning the call chain to it and the acquisition position.
func (g *CallGraph) lockLeaf(start, class string, reachOf func(string) map[string]walkStep) (string, token.Position) {
	seen := reachOf(start)
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := g.Nodes[k]
		if n == nil || n.Test {
			continue
		}
		for _, ls := range n.Locks {
			if ls.Class == class {
				return g.chain(seen, start, k), ls.Position
			}
		}
	}
	return g.shortKey(start), g.Nodes[start].Position
}

// legString renders one edge's evidence: where the first lock is held and
// how the second is reached.
func (g *CallGraph) legString(w *lockWitness, reachOf func(string) map[string]walkStep) string {
	s := fmt.Sprintf("%s holds %s (%s) then takes %s",
		g.shortKey(w.holder), g.shortKey(w.from.Class),
		baseLine(w.from.Position.Filename, w.from.Position.Line),
		g.shortKey(w.to))
	if w.callee == "" {
		return s + " at " + baseLine(w.second.Filename, w.second.Line)
	}
	chain, leaf := g.lockLeaf(w.callee, w.to, reachOf)
	return s + fmt.Sprintf(" via %s (%s)", chain, baseLine(leaf.Filename, leaf.Line))
}

// pathString renders the reverse direction of a cycle as its class-edge
// hops, each with the function and position that witnesses it.
func (g *CallGraph) pathString(from, to string, adj map[string]map[string]*lockWitness, reachOf func(string) map[string]walkStep) string {
	// BFS over the class graph for the shortest from → to path.
	prev := map[string]string{from: ""}
	queue := []string{from}
	for len(queue) > 0 && prev[to] == "" && to != from {
		cur := queue[0]
		queue = queue[1:]
		targets := make([]string, 0, len(adj[cur]))
		for t := range adj[cur] {
			targets = append(targets, t)
		}
		sort.Strings(targets)
		for _, t := range targets {
			if _, ok := prev[t]; !ok {
				prev[t] = cur
				queue = append(queue, t)
			}
		}
	}
	var hops []string
	for cur := to; cur != from; {
		p := prev[cur]
		if p == "" && cur != from {
			return "(unwitnessed)" // should not happen: caller checked reachability
		}
		w := adj[p][cur]
		hops = append(hops, fmt.Sprintf("%s then %s in %s (%s)",
			g.shortKey(p), g.shortKey(cur), g.shortKey(w.holder),
			baseLine(w.position.Filename, w.position.Line)))
		cur = p
	}
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	return strings.Join(hops, ", ")
}
