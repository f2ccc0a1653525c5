package lint

import (
	"fmt"
	"sort"
)

// HotPath enforces the zero-allocation contract on the request-time hot
// paths: a function annotated
//
//	//canal:hotpath
//
// (L7 route match/dispatch, the sim event-loop pop/dispatch, trace hop
// recording, admission submit) — and every function reachable from it
// through the call graph — must not heap-allocate (escaping composite
// literals, append growth, string concatenation/conversions, interface
// boxing at call sites), acquire mutexes, block on channels, or call the
// banned packages (fmt, reflect, regexp). "Dissecting Service Mesh
// Overheads" (PAPERS.md) locates mesh dataplane latency exactly there:
// per-request allocation and locking. Violations that are deliberate
// (amortized growth against preallocated capacity, uncontended mutexes
// required for the concurrent live path) carry //canal:allow hotpath
// directives with the justification.
//
// Reachability excludes test-file functions: a test fake implementing a
// dataplane interface is not on the production hot path.
func HotPath() *Analyzer {
	return &Analyzer{
		Name:      "hotpath",
		Doc:       "forbid allocation, locking, blocking, and fmt/reflect/regexp on //canal:hotpath-reachable code (call-graph-aware)",
		runModule: func(m *module) []Diagnostic { return m.callGraph().hotpathFindings() },
	}
}

// hotpathFindings computes the module-wide hotpath diagnostics.
func (g *CallGraph) hotpathFindings() []Diagnostic {
	var diags []Diagnostic
	type site struct {
		file string
		off  int
		what string
	}
	reported := map[site]bool{}
	for _, root := range g.hotRoots() {
		seen := g.reach(root.Key)
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
				if f.Kind != FactAlloc && f.Kind != FactLock && f.Kind != FactChan && f.Kind != FactBanned {
					continue
				}
				s := site{file: f.Position.Filename, off: f.Position.Offset, what: f.What}
				if reported[s] {
					continue
				}
				reported[s] = true
				msg := fmt.Sprintf("%s in hot-path function %s", f.What, g.shortKey(root.Key))
				if k != root.Key {
					msg = fmt.Sprintf("%s on the hot path of %s (via %s)", f.What, g.shortKey(root.Key), g.chain(seen, root.Key, k))
				}
				diags = append(diags, Diagnostic{
					Pos:     f.Position,
					Message: msg,
				})
			}
		}
	}
	return diags
}
