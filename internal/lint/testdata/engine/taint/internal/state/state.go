// Package state is the package-level-store half of the taint fixture: the
// tenantflow rule for payload stored in module state without a tenant key.
package state

import "canalmesh/internal/l7"

var (
	last      string
	responses = map[string]string{}
)

// Remember stores source-derived payload unkeyed: the taint rule fires.
func Remember(req *l7.Request) {
	last = req.Path // want "stored in package-level internal/state.last"
}

// Cache stores the same payload keyed by the tenant: quiet.
func Cache(req *l7.Request) {
	responses[req.Tenant] = req.Path
}
