// Package redirect models how traffic leaving a user app reaches the local
// proxy: iptables-based redirection (two extra context switches, memory
// copies and protocol-stack traversals per packet, Fig. 21) versus
// eBPF-based socket-to-socket redirection (§4.1.2), including the Nagle
// small-packet aggregation Canal re-implements in eBPF because kernel bypass
// loses the kernel's own aggregation (Fig. 22).
package redirect

import (
	"time"

	"canalmesh/internal/netmodel"
	"canalmesh/internal/sim"
)

// Mode selects the redirection mechanism.
type Mode int

const (
	// Iptables redirects through the kernel stack (Istio's default).
	Iptables Mode = iota
	// EBPF redirects socket-to-socket, bypassing the stack.
	EBPF
)

// String returns the mode name.
func (m Mode) String() string {
	if m == Iptables {
		return "iptables"
	}
	return "eBPF"
}

// MSS is the segment size at which aggregated data is flushed.
const MSS = 1460

// Stats accumulates the kernel-level activity of a redirector.
type Stats struct {
	Packets         int
	Deliveries      int // packets (or aggregates) handed to the proxy
	ContextSwitches int
	StackPasses     int
	CopiedBytes     int
	CPU             time.Duration
}

// PerPacketCost returns the CPU cost and kernel activity of redirecting one
// packet of the given size, excluding aggregation effects.
func PerPacketCost(mode Mode, size int, c netmodel.Costs) (time.Duration, Stats) {
	var s Stats
	s.Packets = 1
	s.Deliveries = 1
	switch mode {
	case Iptables:
		// Fig. 21: the detour adds two context switches, two stack passes
		// and two copies on each side of the proxy.
		s.ContextSwitches = 2
		s.StackPasses = 2
		s.CopiedBytes = 2 * size
		s.CPU = 2*c.ContextSw + 2*c.StackPass + 2*c.CopyCost(size)
	case EBPF:
		// Socket-to-socket: one redirect operation, one copy, one wakeup
		// of the proxy.
		s.ContextSwitches = 1
		s.StackPasses = 0
		s.CopiedBytes = size
		s.CPU = c.RedirectEBPF + c.ContextSw + c.CopyCost(size)
	}
	return s.CPU, s
}

// Nagle aggregates small writes until MSS bytes accumulate or a flush
// timeout expires, reducing per-packet context switches — the fix Canal
// implements in eBPF for small-packet workloads (§4.1.2).
type Nagle struct {
	sim     *sim.Sim
	mss     int
	timeout time.Duration
	deliver func(size int)

	buffered int
	armed    bool
	flushAt  time.Duration
}

// NewNagle returns an aggregator that calls deliver with each flushed
// aggregate size.
func NewNagle(s *sim.Sim, mss int, timeout time.Duration, deliver func(size int)) *Nagle {
	if mss <= 0 {
		mss = MSS
	}
	return &Nagle{sim: s, mss: mss, timeout: timeout, deliver: deliver}
}

// Write buffers size bytes, flushing greedily at MSS boundaries.
func (n *Nagle) Write(size int) {
	n.buffered += size
	for n.buffered >= n.mss {
		n.buffered -= n.mss
		n.deliver(n.mss)
	}
	if n.buffered > 0 && !n.armed {
		n.armed = true
		n.flushAt = n.sim.Now() + n.timeout
		deadline := n.flushAt
		n.sim.At(deadline, func() {
			if n.armed && n.flushAt == deadline && n.buffered > 0 {
				n.Flush()
			}
		})
	}
	if n.buffered == 0 {
		n.armed = false
	}
}

// Flush delivers any buffered bytes immediately.
func (n *Nagle) Flush() {
	n.armed = false
	if n.buffered == 0 {
		return
	}
	size := n.buffered
	n.buffered = 0
	n.deliver(size)
}

// Buffered returns the bytes currently held.
func (n *Nagle) Buffered() int { return n.buffered }

// Redirector is the per-node redirection path: packets written by the app
// are (optionally) aggregated and then charged the per-delivery redirection
// cost before reaching the proxy.
type Redirector struct {
	mode  Mode
	costs netmodel.Costs
	nagle *Nagle
	stats Stats
	// Deliver receives each aggregate handed to the proxy.
	Deliver func(size int)
}

// NewRedirector builds a redirector. useNagle enables small-packet
// aggregation (always on for iptables, since the kernel stack applies Nagle
// by default; optional for eBPF, where Canal had to add it).
func NewRedirector(s *sim.Sim, mode Mode, useNagle bool, costs netmodel.Costs) *Redirector {
	r := &Redirector{mode: mode, costs: costs}
	if mode == Iptables {
		useNagle = true // kernel stack default
	}
	if useNagle {
		// The flush timeout mirrors the kernel's delayed-ACK-scale hold
		// time; it must exceed typical inter-packet gaps or nothing
		// aggregates.
		r.nagle = NewNagle(s, MSS, 5*time.Millisecond, r.deliverOne)
	}
	return r
}

// Send redirects one app write of the given size.
func (r *Redirector) Send(size int) {
	r.stats.Packets++
	if r.nagle != nil {
		r.nagle.Write(size)
		return
	}
	r.deliverOne(size)
}

// FlushPending forces any aggregated bytes out (end of a message).
func (r *Redirector) FlushPending() {
	if r.nagle != nil {
		r.nagle.Flush()
	}
}

func (r *Redirector) deliverOne(size int) {
	cpu, s := PerPacketCost(r.mode, size, r.costs)
	r.stats.Deliveries++
	r.stats.ContextSwitches += s.ContextSwitches
	r.stats.StackPasses += s.StackPasses
	r.stats.CopiedBytes += s.CopiedBytes
	r.stats.CPU += cpu
	if r.Deliver != nil {
		r.Deliver(size)
	}
}

// Stats returns accumulated statistics.
func (r *Redirector) Stats() Stats { return r.stats }

// Mode returns the redirection mechanism.
func (r *Redirector) Mode() Mode { return r.mode }
