package lint

// PoolBleed enforces the reset-before-reuse discipline on sync.Pool: a
// value handed to (*sync.Pool).Put without a preceding reset of the same
// value — a Reset/Clear/Truncate call, a reslice to zero length, clear(),
// or zeroing with an empty composite literal — still holds the previous
// request's bytes, and in a shared multi-tenant gateway the next Get may
// serve a different tenant. This is the classic pooled-buffer cross-tenant
// leak; the check is deliberately strict (any textual reset before the Put
// in the same function counts, nothing else does) because a dirty Put is
// never cheaper than buf.Reset().
//
// Arguments that are fresh values at the Put site (composite literals,
// call results) are skipped — there is no prior request in them.
func PoolBleed() *Analyzer {
	return &Analyzer{
		Name:      "poolbleed",
		Doc:       "report sync.Pool values returned without a reset, leaking one request's bytes to the next",
		runModule: func(m *module) []Diagnostic { return m.taintEngine().findingsFor("poolbleed") },
	}
}
