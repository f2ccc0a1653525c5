package lint

import "strings"

// simScopeDirs are the packages whose code runs under (or feeds) the
// discrete-event simulator. Inside them, virtual time must come from the sim
// clock and randomness from an explicitly seeded *rand.Rand; wall-clock
// reads and the global math/rand source silently break seed-reproducibility
// of every regenerated table and figure. The module root package is out of
// scope: it is the live gateway, which runs nothing under the simulator and
// reads the wall clock by design. Subdirectories of a scoped package are
// scoped too.
var simScopeDirs = []string{
	"internal/sim",
	"internal/netmodel",
	"internal/bench",
	"internal/gateway",
	"internal/l4",
	"internal/l7",
	"internal/sharding",
	"internal/scaling",
	"internal/workload",
	"internal/admission",
	"internal/keyserver",
	"internal/trace",
	"internal/configpush",
	"internal/policy",
	"internal/federation",
	"internal/proxy",
	"internal/anomaly",
	"internal/cloud",
	"internal/cluster",
	"internal/controlplane",
	"internal/healthcheck",
	"internal/redirect",
	"internal/beamer",
}

// inSimScope reports whether the package directory is simulation-facing.
func inSimScope(dir string) bool {
	for _, s := range simScopeDirs {
		if dir == s || strings.HasPrefix(dir, s+"/") {
			return true
		}
	}
	return false
}

// SimDeterminism forbids wall-clock access and global math/rand draws in
// simulation-facing packages. The detector is the call-graph builder, which
// records each such call as a FactWallClock or FactGlobalRand fact on the
// function (or package init node) it sits in; this analyzer reports the
// facts of sim-scope nodes, test files included. A read laundered through
// an out-of-scope helper is left to TestSuiteRenderedSHA and the run-twice
// determinism tests, which fail once it reaches rendered output.
func SimDeterminism() *Analyzer {
	return &Analyzer{
		Name:      "simdeterminism",
		Doc:       "forbid wall-clock and global math/rand use in simulation packages",
		runModule: simDeterminismFindings,
	}
}

func simDeterminismFindings(m *module) []Diagnostic {
	g := m.callGraph()
	var out []Diagnostic
	for _, key := range g.keys {
		n := g.Nodes[key]
		if !inSimScope(n.Dir) {
			continue
		}
		for _, f := range n.Facts {
			var msg string
			switch f.Kind {
			case FactWallClock:
				msg = "time." + f.callee.Name() + " reads the wall clock in a simulation package; derive time from the sim clock (sim.Now/After)"
			case FactGlobalRand:
				msg = "rand." + f.callee.Name() + " draws from the global " + f.callee.Pkg().Path() + " source; use an explicitly seeded *rand.Rand"
			default:
				continue
			}
			out = append(out, Diagnostic{Pos: f.Position, Message: msg})
		}
	}
	return out
}
