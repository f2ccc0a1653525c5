// Package proxyless implements the cloud-based proxyless service mesh of
// Appendix B: for customers whose nodes are entirely closed to third-party
// software, even the minimal on-node proxy is removed. Traffic reaches the
// mesh gateway through DNS redirection of the tenant's service names, and
// workload authentication moves to the virtual network interfaces (ENIs)
// attached to containers, whose embedded anti-spoofing the cloud provider
// controls. The package models what a deployment gives up (FeatureMatrix)
// and what one interface per container costs a node (ENIManager).
package proxyless

import (
	"errors"
	"fmt"
	"net/netip"
)

// Feature is one mesh capability whose availability changes under proxyless
// deployment.
type Feature int

const (
	// FeatureTrafficControl is routing/splitting/limiting at the gateway.
	FeatureTrafficControl Feature = iota
	// FeatureEncryption is transport encryption from the user node.
	FeatureEncryption
	// FeatureAuthentication is workload identity verification.
	FeatureAuthentication
	// FeatureNodeObservability is traffic collection on the user node.
	FeatureNodeObservability
	// FeatureGatewayObservability is traffic collection at the gateway.
	FeatureGatewayObservability
)

// String names the feature.
func (f Feature) String() string {
	switch f {
	case FeatureTrafficControl:
		return "traffic-control"
	case FeatureEncryption:
		return "encryption"
	case FeatureAuthentication:
		return "authentication"
	case FeatureNodeObservability:
		return "node-observability"
	case FeatureGatewayObservability:
		return "gateway-observability"
	default:
		return fmt.Sprintf("Feature(%d)", int(f))
	}
}

// Support is the availability level of a feature.
type Support int

const (
	// Full support, equivalent to the on-node proxy mode.
	Full Support = iota
	// Partial support with documented gaps.
	Partial
	// SemiManaged requires the user to hold material (certificates) or
	// trust the provider.
	SemiManaged
	// Unavailable entirely.
	Unavailable
)

// String names the support level.
func (s Support) String() string {
	switch s {
	case Full:
		return "full"
	case Partial:
		return "partial"
	case SemiManaged:
		return "semi-managed"
	default:
		return "unavailable"
	}
}

// FeatureMatrix returns the Appendix B capability matrix for proxyless
// deployments: traffic control survives intact (it lives at the gateway),
// node-side observability is lost, gateway-side observability remains, and
// encryption degrades to semi-managed (user-held certificates, or trusting
// the provider's TLS at the gateway).
func FeatureMatrix() map[Feature]Support {
	return map[Feature]Support{
		FeatureTrafficControl:       Full,
		FeatureEncryption:           SemiManaged,
		FeatureAuthentication:       Partial, // via ENI anti-spoofing only
		FeatureNodeObservability:    Unavailable,
		FeatureGatewayObservability: Full,
	}
}

// ENI is a virtual network interface attached to one container. Cloud
// virtual interfaces embed authentication: traffic through them cannot be
// forged or tampered with, which is what proxyless authentication leans on.
type ENI struct {
	ID        string
	Container string
	IP        netip.Addr
	MemoryKB  int // node memory the interface consumes
}

// ENIManager allocates per-container interfaces against node limits —
// Appendix B's first caveat: one interface per container exhausts node
// memory and interface quota as containers grow.
type ENIManager struct {
	maxPerNode  int
	memBudgetKB int

	enis   map[string]*ENI // container -> ENI
	ipPool []netip.Addr
	next   int
	seq    int
}

// Interface resource constants.
const (
	// ENIMemoryKB is the node memory one virtual interface consumes.
	ENIMemoryKB = 512
	// DefaultMaxENIsPerNode is a typical per-node interface quota.
	DefaultMaxENIsPerNode = 50
)

// NewENIManager returns a manager with the node's interface quota and
// memory budget, drawing addresses from the given pool.
func NewENIManager(maxPerNode, memBudgetKB int, pool []netip.Addr) *ENIManager {
	if maxPerNode <= 0 {
		maxPerNode = DefaultMaxENIsPerNode
	}
	return &ENIManager{maxPerNode: maxPerNode, memBudgetKB: memBudgetKB, enis: make(map[string]*ENI), ipPool: pool}
}

// ErrENILimit is returned when the node cannot host another interface.
var ErrENILimit = errors.New("proxyless: node interface limit reached")

// Attach allocates an interface for a container. It fails once the per-node
// quota, the memory budget, or the IP pool is exhausted.
func (m *ENIManager) Attach(container string) (*ENI, error) {
	if e, ok := m.enis[container]; ok {
		return e, nil
	}
	if len(m.enis) >= m.maxPerNode {
		return nil, fmt.Errorf("%w: %d interfaces", ErrENILimit, len(m.enis))
	}
	if (len(m.enis)+1)*ENIMemoryKB > m.memBudgetKB {
		return nil, fmt.Errorf("%w: memory budget %dKB", ErrENILimit, m.memBudgetKB)
	}
	if m.next >= len(m.ipPool) {
		return nil, fmt.Errorf("%w: IP pool exhausted", ErrENILimit)
	}
	m.seq++
	e := &ENI{
		ID:        fmt.Sprintf("eni-%d", m.seq),
		Container: container,
		IP:        m.ipPool[m.next],
		MemoryKB:  ENIMemoryKB,
	}
	m.next++
	m.enis[container] = e
	return e, nil
}

// Detach releases a container's interface (the IP is not recycled in this
// model, matching the allocation pressure the appendix describes).
func (m *ENIManager) Detach(container string) {
	delete(m.enis, container)
}

// Count returns attached interfaces.
func (m *ENIManager) Count() int { return len(m.enis) }
