package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

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

// SimDeterminism forbids wall-clock access and global math/rand draws in
// simulation-facing packages. It walks every call of a sim-scope package,
// test files and package-level var initialisers included, and resolves the
// callee through the type checker, so a renamed import is still package
// time and a local that happens to be called time is not. A read laundered
// through an out-of-scope helper is left to TestSuiteRenderedSHA and the
// run-twice determinism tests, which fail once it reaches rendered output.
func SimDeterminism() *Analyzer {
	return &Analyzer{
		Name: "simdeterminism",
		Doc:  "forbid wall-clock and global math/rand use in simulation packages",
		Run:  runSimDeterminism,
	}
}

func runSimDeterminism(p *Package, r *Reporter) {
	if !inSimScope(p.Dir) {
		return
	}
	for _, sf := range p.Files {
		ast.Inspect(sf.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := p.callee(call)
			if fn == nil || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch path := fn.Pkg().Path(); {
			case path == "time" && wallClockFuncs[fn.Name()]:
				r.Reportf(call.Pos(), "time.%s reads the wall clock in a simulation package; derive time from the sim clock (sim.Now/After)", fn.Name())
			case (path == "math/rand" || path == "math/rand/v2") && !randConstructors[fn.Name()]:
				r.Reportf(call.Pos(), "rand.%s draws from the global %s source; use an explicitly seeded *rand.Rand", fn.Name(), path)
			}
			return true
		})
	}
}
