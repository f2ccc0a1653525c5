// Package l4 implements the Layer-4 functions every architecture keeps close
// to the workload: connection tracking, L4 load balancing across backends,
// and zero-trust network admission at the transport layer. It is the feature
// set Ambient's per-node proxy retains and the Canal on-node proxy inherits.
package l4

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"canalmesh/internal/cloud"
)

// Balancer selects a backend for a flow. Implementations must be
// deterministic given the same state and flow key (stateless ECMP-style
// hashing) or maintain their own state (round robin).
type Balancer interface {
	// Pick returns the chosen backend index in [0, n), or an error when
	// n == 0.
	Pick(key cloud.SessionKey, n int) (int, error)
}

// HashBalancer hashes the 5-tuple, mimicking router ECMP: the same flow
// always lands on the same backend while the backend list is stable.
type HashBalancer struct{}

// Pick implements Balancer.
func (HashBalancer) Pick(key cloud.SessionKey, n int) (int, error) {
	if n == 0 {
		return 0, fmt.Errorf("l4: no backends")
	}
	return int(Hash5Tuple(key) % uint64(n)), nil
}

// RoundRobinBalancer cycles through backends.
type RoundRobinBalancer struct {
	mu   sync.Mutex
	next int
}

// Pick implements Balancer.
func (b *RoundRobinBalancer) Pick(_ cloud.SessionKey, n int) (int, error) {
	if n == 0 {
		return 0, fmt.Errorf("l4: no backends")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	i := b.next % n
	b.next++
	return i, nil
}

// Hash5Tuple returns a stable non-cryptographic hash of the flow key. Both
// the L4 balancer and the Beamer-style redirectors use it so their decisions
// agree.
//
// The hash is FNV-1a-64 over "SrcIP|SrcPort|DstIP|DstPort|Proto" with the
// integers in decimal — the bytes fmt's "%s|%d|%s|%d|%d" renders — computed
// inline, so a flow hashes without a hasher or a formatted string.
//
//canal:hotpath
func Hash5Tuple(k cloud.SessionKey) uint64 {
	h := fnvString(fnvOffset64, k.SrcIP)
	h = fnvUint(fnvByte(h, '|'), uint64(k.SrcPort))
	h = fnvString(fnvByte(h, '|'), k.DstIP)
	h = fnvUint(fnvByte(h, '|'), uint64(k.DstPort))
	return fnvUint(fnvByte(h, '|'), uint64(k.Proto))
}

// FNV-1a-64 parameters (hash/fnv's offset basis and prime).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, c byte) uint64 { return (h ^ uint64(c)) * fnvPrime64 }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// fnvUint hashes v's decimal digits, formatted into a stack buffer.
func fnvUint(h uint64, v uint64) uint64 {
	var buf [20]byte
	for _, c := range strconv.AppendUint(buf[:0], v, 10) {
		h = fnvByte(h, c)
	}
	return h
}

// AdmissionRule is a transport-level zero-trust rule: traffic from a source
// identity to a destination port is allowed or denied before any L7
// processing happens.
type AdmissionRule struct {
	Name     string
	Allow    bool
	SrcIDs   []string // workload identities (SPIFFE-like); empty = any
	DstPorts []uint16 // empty = any
}

func (r AdmissionRule) matches(srcID string, dstPort uint16) bool {
	if len(r.SrcIDs) > 0 {
		found := false
		for _, id := range r.SrcIDs {
			if id == srcID {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if len(r.DstPorts) > 0 {
		found := false
		for _, p := range r.DstPorts {
			if p == dstPort {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Admit evaluates admission rules in order; the first match decides. With no
// matching rule the default is deny — zero-trust semantics.
func Admit(rules []AdmissionRule, srcID string, dstPort uint16) (bool, string) {
	for _, r := range rules {
		if r.matches(srcID, dstPort) {
			return r.Allow, r.Name
		}
	}
	return false, "default-deny"
}

// Conntrack is a connection-tracking table mapping flows to the backend that
// owns them, preserving session affinity across balancing decisions.
type Conntrack struct {
	mu    sync.Mutex
	flows map[cloud.SessionKey]string
}

// NewConntrack returns an empty table.
func NewConntrack() *Conntrack {
	return &Conntrack{flows: make(map[cloud.SessionKey]string)}
}

// Lookup returns the backend owning the flow, if tracked.
func (c *Conntrack) Lookup(k cloud.SessionKey) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.flows[k]
	return b, ok
}

// Bind records flow ownership.
func (c *Conntrack) Bind(k cloud.SessionKey, backend string) {
	c.mu.Lock()
	c.flows[k] = backend
	c.mu.Unlock()
}

// Unbind removes a flow.
func (c *Conntrack) Unbind(k cloud.SessionKey) {
	c.mu.Lock()
	delete(c.flows, k)
	c.mu.Unlock()
}

// Len returns the tracked flow count.
func (c *Conntrack) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.flows)
}

// FlowsTo returns the flows currently bound to a backend, sorted by key
// string for determinism. Drain operations use it.
func (c *Conntrack) FlowsTo(backend string) []cloud.SessionKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []cloud.SessionKey
	for k, b := range c.flows {
		if b == backend {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// LoadBalancer combines a Balancer with conntrack: existing flows stick to
// their backend, new flows are balanced over the currently-alive list.
type LoadBalancer struct {
	balancer Balancer
	ct       *Conntrack
}

// NewLoadBalancer returns a session-affine load balancer.
func NewLoadBalancer(b Balancer) *LoadBalancer {
	return &LoadBalancer{balancer: b, ct: NewConntrack()}
}

// Route returns the backend name for the flow, binding new flows.
func (lb *LoadBalancer) Route(k cloud.SessionKey, backends []string) (string, error) {
	if b, ok := lb.ct.Lookup(k); ok {
		for _, alive := range backends {
			if alive == b {
				return b, nil
			}
		}
		// Owner is gone: rebind below.
		lb.ct.Unbind(k)
	}
	i, err := lb.balancer.Pick(k, len(backends))
	if err != nil {
		return "", err
	}
	lb.ct.Bind(k, backends[i])
	return backends[i], nil
}

// Conntrack exposes the underlying table.
func (lb *LoadBalancer) Conntrack() *Conntrack { return lb.ct }
