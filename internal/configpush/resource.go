// Package configpush is the versioned, delta-capable configuration
// distribution subsystem: the control plane's answer to §2.1's observation
// that full-set pushes make southbound bandwidth grow O(N²) with cluster
// size, while incremental updates "would be preferable".
//
// It has three parts. A snapshot store (snapshot.go) holds monotonically
// versioned, content-addressed views of the mesh configuration; diffing two
// versions yields the minimal set of changed resources. Watch sessions
// (session.go) are the per-subscriber state machines: each simulated
// sidecar/node-proxy/waypoint/gateway subscribes with a scope and its last
// acked version, and receives either a delta or — after eviction or a long
// partition — a full resync. The distributor (distributor.go) coalesces
// API-server event bursts into one snapshot build shared by every
// subscriber at the same version (build-once, fan-out-many) and serializes
// sends over the modeled southbound link, so convergence time and
// stale-config windows come out of the simulation rather than a formula.
package configpush

import (
	"hash/fnv"

	"canalmesh/internal/controlplane"
)

// Kind classifies one configuration resource.
type Kind uint8

const (
	// KindEndpoint is a pod's routing entry (IP, port, locality) — what
	// every data-plane proxy needs to route upstream.
	KindEndpoint Kind = iota
	// KindRuleSet is one service's L7 routing/security rule set.
	KindRuleSet
	// KindIdentity is the tiny per-pod identity/observability entry a Canal
	// on-node proxy needs (§4.1.1) — no routing configuration.
	KindIdentity
	// KindPolicy is one compiled policy dispatch bucket (policy.BucketResource):
	// the unit of incremental intention recompilation, content-addressed so an
	// unchanged bucket never crosses the southbound link.
	KindPolicy

	numKinds = iota
)

// String returns the kind's key prefix.
func (k Kind) String() string {
	switch k {
	case KindEndpoint:
		return "ep"
	case KindRuleSet:
		return "rules"
	case KindIdentity:
		return "id"
	case KindPolicy:
		return "pol"
	default:
		return "kind?"
	}
}

// Resource is one content-addressed configuration unit. Two resources with
// the same Key and Hash are identical; a changed Hash under the same Key is
// an update the diff must carry.
type Resource struct {
	Kind    Kind
	Name    string // pod name (endpoint/identity) or service name (ruleset)
	Node    string // hosting node, for node-scoped subscriptions
	Service string
	Bytes   int    // serialized size, priced by controlplane.Sizing
	Hash    uint64 // content hash
}

// Key is the resource's stable identity across versions.
func (r Resource) Key() string { return r.Kind.String() + "/" + r.Name }

// hashOf content-addresses a resource from its identifying fields.
func hashOf(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		_, _ = h.Write([]byte(p))
		_, _ = h.Write([]byte{0})
	}
	return h.Sum64()
}

// ScopeKind enumerates the subscription footprints of the three
// architectures' proxies.
type ScopeKind uint8

const (
	// ScopeMesh is the full configuration set — every endpoint and every
	// rule. Istio sidecars ("a common practice is to download the same
	// configuration set to all sidecars", §2.1) and the Canal mesh gateway
	// subscribe at this scope.
	ScopeMesh ScopeKind = iota
	// ScopeEndpoints is endpoints only: Ambient's per-node L4 proxies.
	ScopeEndpoints
	// ScopeService is all endpoints plus one service's own rules:
	// Ambient's per-service L7 waypoints.
	ScopeService
	// ScopeNodeIdentity is the per-pod identity entries of one node's pods:
	// Canal's minimal on-node proxies (§4.1.1).
	ScopeNodeIdentity
)

// Scope is a subscriber's configuration footprint: which resources it
// needs, and therefore which deltas it must receive.
type Scope struct {
	Kind ScopeKind
	Name string // service (ScopeService) or node (ScopeNodeIdentity)
}

// Key returns the scope's label. Subscribers with equal scopes share payload
// builds — all Istio sidecars are one "mesh" scope, all Ambient node L4
// proxies one "endpoints" scope.
func (sc Scope) Key() string {
	switch sc.Kind {
	case ScopeMesh:
		return "mesh"
	case ScopeEndpoints:
		return "endpoints"
	case ScopeService:
		return "svc/" + sc.Name
	case ScopeNodeIdentity:
		return "ident/" + sc.Name
	default:
		return "scope?"
	}
}

// Matches reports whether the resource is part of this scope's footprint.
func (sc Scope) Matches(r Resource) bool {
	switch sc.Kind {
	case ScopeMesh:
		return r.Kind == KindEndpoint || r.Kind == KindRuleSet || r.Kind == KindPolicy
	case ScopeEndpoints:
		return r.Kind == KindEndpoint
	case ScopeService:
		if r.Kind == KindEndpoint {
			return true
		}
		if r.Kind == KindRuleSet {
			return r.Name == sc.Name
		}
		// Policy buckets: the destination-exact buckets of this service, plus
		// every wildcard-destination bucket (Service == "") — those can match
		// traffic to any destination, so every L7 enforcement point needs them.
		return r.Kind == KindPolicy && (r.Service == sc.Name || r.Service == "")
	case ScopeNodeIdentity:
		return r.Kind == KindIdentity && r.Node == sc.Name
	default:
		return false
	}
}

// baseBytes is the fixed framing a full sync at this scope carries: Canal's
// minimal on-node proxy config for identity scopes, the regular per-proxy
// config framing everywhere else.
func (sc Scope) baseBytes(sz controlplane.Sizing) int {
	if sc.Kind == ScopeNodeIdentity {
		return sz.NodeProxyBytes
	}
	return sz.BaseConfigBytes
}

// removedKeyBytes prices a deletion in a delta: the resource's key plus
// tombstone framing, not its content.
const removedKeyBytes = 32
