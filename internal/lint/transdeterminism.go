package lint

import (
	"fmt"
	"sort"
)

// TransDeterminism extends the simdeterminism rules through the call
// graph: a simulation-facing package must not reach the wall clock or the
// global math/rand source *transitively* through helper packages either.
// simdeterminism reports `time.Now()` written inside sim scope; this one
// catches the sim-scope call into an out-of-scope helper whose
// subgraph reads the clock three frames down — the escape hatch that
// silently breaks seed-reproducibility of every regenerated table.
//
// Propagation runs only through out-of-scope, non-test nodes: once a path
// re-enters sim scope, any nondeterminism there is simdeterminism's
// jurisdiction (and its //canal:allow annotations), so nothing is reported
// twice. Test functions are exempt as call sites: a test harness may time
// itself through any helper it likes.
func TransDeterminism() *Analyzer {
	return &Analyzer{
		Name:      "transdeterminism",
		Doc:       "forbid sim-scope code from reaching the wall clock or global math/rand transitively through helper packages",
		runModule: func(m *module) []Diagnostic { return m.callGraph().transDetFindings() },
	}
}

// transDetFindings computes the module-wide transdeterminism diagnostics.
func (g *CallGraph) transDetFindings() []Diagnostic {
	var diags []Diagnostic
	outScope := func(n *FuncNode) bool { return !inSimScope(n.Dir) }
	reachMemo := map[string]map[string]walkStep{}
	type site struct {
		file string
		off  int
	}
	reported := map[site]bool{}
	for _, key := range g.keys {
		n := g.Nodes[key]
		if n.Test || !inSimScope(n.Dir) {
			continue
		}
		for _, e := range n.Calls {
			cn := g.Nodes[e.Callee]
			if cn == nil || cn.Test || inSimScope(cn.Dir) {
				continue
			}
			s := site{file: e.Position.Filename, off: e.Position.Offset}
			if reported[s] {
				continue
			}
			seen, ok := reachMemo[e.Callee]
			if !ok {
				seen = g.reach(e.Callee, outScope)
				reachMemo[e.Callee] = seen
			}
			taintKey, fact := g.firstNondet(seen)
			if taintKey == "" {
				continue
			}
			reported[s] = true
			via := ""
			if taintKey != e.Callee {
				via = " (via " + g.chain(seen, e.Callee, taintKey) + ")"
			}
			diags = append(diags, Diagnostic{
				Pos: e.Position,
				Message: fmt.Sprintf("%s reaches nondeterminism: %s at %s%s; sim-scope code must stay seed-deterministic even through helpers",
					g.shortKey(e.Callee), fact.What,
					baseLine(fact.Position.Filename, fact.Position.Line), via),
			})
		}
	}
	return diags
}

// firstNondet returns the first (by sorted key, then source order) reached
// node holding a wall-clock or global-rand fact, with that fact.
func (g *CallGraph) firstNondet(seen map[string]walkStep) (string, Fact) {
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
		for _, f := range n.Facts {
			if f.Kind == FactWallClock || f.Kind == FactGlobalRand {
				return k, f
			}
		}
	}
	return "", Fact{}
}
