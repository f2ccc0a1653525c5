package l7

// AuthzAction is the effect of an authorization rule.
type AuthzAction int

const (
	// AuthzAllow admits matching traffic.
	AuthzAllow AuthzAction = iota
	// AuthzDeny rejects matching traffic.
	AuthzDeny
)

// AuthzRule is one zero-trust authorization rule on a destination service.
// Zero-value matchers match anything. A service's rules are evaluated with
// Istio-like semantics: any matching deny rejects; otherwise, if no allow
// rules exist the request is admitted; if allow rules exist, at least one
// must match.
type AuthzRule struct {
	Name          string
	Action        AuthzAction
	SourceService StringMatch
	Method        StringMatch
	Path          StringMatch
}
