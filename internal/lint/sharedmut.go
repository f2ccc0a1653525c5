package lint

// SharedMut guards package-level mutable state on the request path: a
// write to a package-scope variable from a function reachable from a
// request-path root (a //canal:hotpath function, or one that reads a
// taint source — see dataflow.go) must hold a lock whose hold range (from
// the v3 lock facts) covers the write, or store through an index keyed by
// an identity-tainted tenant value. Anything else is shared mutable state
// that one tenant's request can corrupt for every other tenant — the
// sidecar-free architecture's singular hazard.
//
// Reads are out of scope by design: immutable package-level configuration
// is idiomatic, and the racy-read case is the race detector's job; this
// analyzer proves the isolation discipline statically.
func SharedMut() *Analyzer {
	return &Analyzer{
		Name:      "sharedmut",
		Doc:       "report unlocked, un-tenant-keyed writes to package-level state reachable from the request path",
		runModule: func(m *module) []Diagnostic { return m.taintEngine().findingsFor("sharedmut") },
	}
}
