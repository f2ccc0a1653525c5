// Package canal is the live gateway of the Canal Mesh reproduction: a
// cloud-scale, sidecar-free, multi-tenant service mesh (Song et al.,
// SIGCOMM 2024).
//
// GatewayServer and NodeAgent (gateway_server.go) run the mesh's L7 engine
// as a real multi-tenant HTTP gateway over TCP, with per-request zero-trust
// authentication backed by the mesh CA; LoadConfig (config.go) reads the
// JSON deployment file cmd/canalgw serves. The configuration types below
// (Request, ServiceConfig, Rule, traffic splits, authorization rules) are
// the L7 engine's own, re-exported.
//
// The package links no part of the discrete-event simulator. The
// simulations that regenerate every table and figure of the paper live
// under internal/ and run through cmd/canalbench (see DESIGN.md).
package canal

import (
	"canalmesh/internal/l7"
	"canalmesh/internal/meshcrypto"
)

// Request is the routing-relevant view of one L7 request.
type Request = l7.Request

// ServiceConfig is the full L7 configuration of one destination service.
type ServiceConfig = l7.ServiceConfig

// Rule is one route rule; rules are evaluated in order, first match wins.
type Rule = l7.Rule

// RouteMatch is the condition part of a rule.
type RouteMatch = l7.RouteMatch

// KVMatch matches a named header or cookie.
type KVMatch = l7.KVMatch

// StringMatch matches one string value.
type StringMatch = l7.StringMatch

// Split is one arm of a weighted traffic split (canary / A-B testing).
type Split = l7.Split

// RateLimitSpec configures token-bucket rate limiting.
type RateLimitSpec = l7.RateLimitSpec

// FaultSpec injects aborts/delays for testing-in-production.
type FaultSpec = l7.FaultSpec

// AuthzRule is one zero-trust authorization rule.
type AuthzRule = l7.AuthzRule

// Authorization actions.
const (
	AuthzAllow = l7.AuthzAllow
	AuthzDeny  = l7.AuthzDeny
)

// Matcher constructors.
var (
	// Exact matches a string exactly.
	Exact = l7.Exact
	// Prefix matches a leading substring.
	Prefix = l7.Prefix
	// Regex matches a regular expression; an invalid pattern is the error
	// of the ConfigureService call that installs it.
	Regex = l7.Regex
	// Present matches any non-empty value.
	Present = l7.Present
	// Any matches everything.
	Any = l7.Any
)

// CA is the mesh certificate authority issuing workload identities.
type CA = meshcrypto.CA

// Identity is one workload's certified keypair.
type Identity = meshcrypto.Identity

// NewCA creates a tenant-scoped certificate authority.
var NewCA = meshcrypto.NewCA
