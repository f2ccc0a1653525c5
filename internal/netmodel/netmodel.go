// Package netmodel holds the calibrated network and kernel cost model shared
// by every simulated experiment. It answers two questions: how long does a
// message take to travel between two placements, and how much CPU does a
// given data-plane operation burn.
//
// The constants are calibrated so that the ratios the paper reports hold
// (sidecar detours cost 2 extra context switches + stack passes per side,
// asymmetric crypto dominates symmetric, intra-AZ RTT < 1 ms, etc.); see
// DESIGN.md §1 for the substitution rationale.
package netmodel

import (
	"time"

	"canalmesh/internal/units"
)

// Place identifies where a component runs. Empty fields compare as wildcards
// at that level: two Places with the same Node are co-located, same AZ but
// different Node are intra-AZ, and so on.
type Place struct {
	Region string
	AZ     string
	Node   string
}

// SameNode reports whether a and b are on the same node.
func (a Place) SameNode(b Place) bool {
	return a.Region == b.Region && a.AZ == b.AZ && a.Node == b.Node && a.Node != ""
}

// SameAZ reports whether a and b are in the same availability zone.
func (a Place) SameAZ(b Place) bool {
	return a.Region == b.Region && a.AZ == b.AZ
}

// SameRegion reports whether a and b are in the same region.
func (a Place) SameRegion(b Place) bool { return a.Region == b.Region }

// Costs is the tunable cost model. All per-operation values are CPU time;
// all *RTT values are network round-trip times.
type Costs struct {
	// Network round-trip times by locality.
	LoopbackRTT time.Duration // same node, through loopback
	IntraAZRTT  time.Duration // same AZ, different node (<1ms per the paper)
	InterAZRTT  time.Duration // same region, different AZ
	CrossRegion time.Duration // different region (VPN / dedicated line)
	ContextSw   time.Duration // one context switch
	StackPass   time.Duration // one traversal of the kernel protocol stack
	CopyPerKB   time.Duration // one memory copy of 1 KB
	L7ParsePer  time.Duration // parse + route one HTTP request at an Envoy-class L7 proxy
	L7PerKB     time.Duration // additional L7 handling per KB of body
	// GatewayL7Factor scales L7ParsePer for Canal's mesh gateway, whose
	// purpose-built user-space dataplane processes L7 cheaper than a
	// general-purpose proxy ("substantial room for performance
	// improvement", §2.2; hardware acceleration for L7, §2.2).
	GatewayL7Factor float64
	L4Process       time.Duration // conntrack lookup + L4 forwarding decision
	// L4Observe is the on-node proxy's per-request observability work:
	// unlike a per-pod sidecar, a shared node proxy must label traffic per
	// pod for fine-grained statistics (Appendix A, "Per-node vs per-pod").
	L4Observe    time.Duration
	RedirectEBPF time.Duration // one eBPF socket-level redirect operation
	SymPerKB     time.Duration // AES-GCM per KB
	AsymSoft     time.Duration // one asymmetric op in software (old CPU)
	AsymAccel    time.Duration // one asymmetric op with QAT/AVX-512 (amortized)
	AppService   time.Duration // baseline user-app service time per request
}

// Default returns the calibrated cost model. The values are small-testbed
// scale (µs-level proxy costs, sub-ms RTTs) so saturation knees appear at
// RPS levels comparable to the paper's Fig 11.
func Default() Costs {
	return Costs{
		LoopbackRTT:     30 * time.Microsecond,
		IntraAZRTT:      500 * time.Microsecond,
		InterAZRTT:      2 * time.Millisecond,
		CrossRegion:     30 * time.Millisecond,
		ContextSw:       5 * time.Microsecond,
		StackPass:       8 * time.Microsecond,
		CopyPerKB:       1 * time.Microsecond,
		L7ParsePer:      400 * time.Microsecond,
		L7PerKB:         4 * time.Microsecond,
		GatewayL7Factor: 0.5,
		L4Process:       6 * time.Microsecond,
		L4Observe:       20 * time.Microsecond,
		RedirectEBPF:    3 * time.Microsecond,
		SymPerKB:        2 * time.Microsecond,
		AsymSoft:        2 * time.Millisecond,
		AsymAccel:       125 * time.Microsecond,
		AppService:      500 * time.Microsecond,
	}
}

// OneWay returns the one-way network latency between two placements.
func (c Costs) OneWay(a, b Place) time.Duration { return c.RTT(a, b) / 2 }

// RTT returns the round-trip network latency between two placements.
func (c Costs) RTT(a, b Place) time.Duration {
	switch {
	case a.SameNode(b):
		return c.LoopbackRTT
	case a.SameAZ(b):
		return c.IntraAZRTT
	case a.SameRegion(b):
		return c.InterAZRTT
	default:
		return c.CrossRegion
	}
}

// L7Cost returns the CPU cost of one L7 traversal of a request with the
// given body size in bytes.
func (c Costs) L7Cost(bodyBytes int) time.Duration {
	return c.L7ParsePer + scaleKB(c.L7PerKB, bodyBytes)
}

// GatewayL7Cost is L7Cost scaled by the mesh gateway's optimized-dataplane
// factor.
func (c Costs) GatewayL7Cost(bodyBytes int) time.Duration {
	f := c.GatewayL7Factor
	if f <= 0 {
		f = 1
	}
	return units.Scale(c.L7Cost(bodyBytes), f)
}

// SymCryptoCost returns the CPU cost of symmetric-encrypting (or decrypting)
// a body of the given size.
func (c Costs) SymCryptoCost(bodyBytes int) time.Duration {
	return scaleKB(c.SymPerKB, bodyBytes)
}

// CopyCost returns the CPU cost of one memory copy of a body.
func (c Costs) CopyCost(bodyBytes int) time.Duration {
	return scaleKB(c.CopyPerKB, bodyBytes)
}

// scaleKB scales a per-KB cost to bodyBytes, rounding partial KBs up so tiny
// payloads are never free.
func scaleKB(perKB time.Duration, bodyBytes int) time.Duration {
	if bodyBytes <= 0 {
		return 0
	}
	kb := (bodyBytes + 1023) / 1024
	return perKB * time.Duration(kb)
}

// WANLink prices one inter-region path: the round-trip time of the peering
// pipe (dedicated line / VPN) and its usable bandwidth. Federation charges
// spilled requests the link's one-way latency per crossing and meters the
// peering control stream at Bps.
type WANLink struct {
	RTT time.Duration
	Bps int64
}

// DefaultWANBps is the usable bandwidth of an inter-region peering pipe:
// 1 Gbit/s of the dedicated line reserved for mesh control and spillover
// traffic.
const DefaultWANBps = 125_000_000
