// Package controlplane models the configuration controllers of the three
// architectures and the costs the paper measures for them: configuration
// build CPU, southbound push bandwidth, and completion time (Figs 3, 4, 14,
// 15; Tables 1, 2).
//
// The cost structure follows §2.1: every Istio sidecar needs the FULL
// configuration set covering all pods and services (so one update costs
// O(N²) southbound bytes); Ambient pushes to per-node L4 proxies and
// per-service L7 waypoints; Canal pushes almost everything to the
// centralized mesh gateway, with on-node proxies needing only rare,
// minimal-size updates.
package controlplane

import (
	"fmt"
	"time"

	"canalmesh/internal/cluster"
	"canalmesh/internal/units"
)

// Model selects the architecture being configured.
type Model int

const (
	// IstioModel configures one sidecar per pod.
	IstioModel Model = iota
	// AmbientModel configures one L4 proxy per node plus one L7 waypoint
	// per service.
	AmbientModel
	// CanalModel configures the centralized mesh gateway plus minimal
	// on-node proxies.
	CanalModel
)

// String returns the model name.
func (m Model) String() string {
	switch m {
	case IstioModel:
		return "istio"
	case AmbientModel:
		return "ambient"
	case CanalModel:
		return "canal"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Sizing holds the byte/CPU cost constants of the configuration pipeline.
type Sizing struct {
	BaseConfigBytes   int           // fixed per-proxy configuration framing
	PerEndpointBytes  int           // bytes per pod endpoint in a config
	PerRuleBytes      int           // bytes per routing/security rule
	NodeProxyBytes    int           // Canal's minimal on-node proxy config
	BuildCPUPerKB     time.Duration // controller CPU per KB built
	PerTargetOverhead time.Duration // connection/ack overhead per pushed proxy
	SouthboundBps     int64         // available southbound bandwidth, bytes/s
	// PerPodIdentityBytes is the tiny per-pod identity/observability entry
	// a Canal on-node proxy needs when a pod is created.
	PerPodIdentityBytes int
	// PodStartupTime is the architecture-independent time for a batch of
	// created pods to schedule, pull and become ping-able; the Fig 14
	// experiment measures configuration completion on top of it.
	PodStartupTime time.Duration
}

// DeltaFramingBytes is the fixed framing/versioning cost of one delta
// (incremental) push: the envelope naming the version pair and resource
// types, an eighth of the full per-proxy config framing. PushIncremental
// and the configpush distributor both price deltas with it, so the two
// incremental models stay comparable.
func (s Sizing) DeltaFramingBytes() int { return s.BaseConfigBytes / 8 }

// DefaultSizing returns constants calibrated so the paper's ratios hold:
// Canal's bandwidth ~10x below Istio and ~4-5x below Ambient at testbed
// scale, completion times ordered Canal < Ambient < Istio.
func DefaultSizing() Sizing {
	return Sizing{
		BaseConfigBytes:     8 * 1024,
		PerEndpointBytes:    300,
		PerRuleBytes:        500,
		NodeProxyBytes:      2 * 1024,
		BuildCPUPerKB:       40 * time.Microsecond,
		PerTargetOverhead:   2 * time.Millisecond,
		SouthboundBps:       125_000_000, // 1 Gbps
		PerPodIdentityBytes: 128,
		PodStartupTime:      15 * time.Second,
	}
}

// PushStats describes one configuration push.
type PushStats struct {
	Model      Model
	Targets    int           // proxies that received configuration
	Bytes      int64         // total southbound bytes
	BuildCPU   time.Duration // controller CPU spent building
	Completion time.Duration // time until the last proxy acked
}

// Controller builds and pushes configuration for one cluster under one
// architecture model.
type Controller struct {
	Model  Model
	Sizing Sizing
	c      *cluster.Cluster

	pushes []PushStats
}

// New returns a controller attached to a cluster.
func New(model Model, s Sizing, c *cluster.Cluster) *Controller {
	return &Controller{Model: model, Sizing: s, c: c}
}

// totalRules sums L7 rules across services.
func (ctl *Controller) totalRules() int {
	n := 0
	for _, s := range ctl.c.Services() {
		n += s.L7Rules
	}
	return n
}

// fullConfigBytes is the size of the complete mesh configuration: every
// endpoint and every rule. This is what each Istio sidecar receives ("a
// common practice is to download the same configuration set to all
// sidecars", §2.1).
func (ctl *Controller) fullConfigBytes() int {
	return ctl.Sizing.BaseConfigBytes +
		ctl.c.NumPods()*ctl.Sizing.PerEndpointBytes +
		ctl.totalRules()*ctl.Sizing.PerRuleBytes
}

// serviceConfigBytes is the configuration one Ambient waypoint needs: its
// own service's rules plus endpoints of all pods (for routing upstream).
func (ctl *Controller) serviceConfigBytes(svc *cluster.Service) int {
	return ctl.Sizing.BaseConfigBytes +
		ctl.c.NumPods()*ctl.Sizing.PerEndpointBytes +
		svc.L7Rules*ctl.Sizing.PerRuleBytes
}

// nodeL4ConfigBytes is an Ambient per-node L4 proxy's config: endpoints only.
func (ctl *Controller) nodeL4ConfigBytes() int {
	return ctl.Sizing.BaseConfigBytes + ctl.c.NumPods()*ctl.Sizing.PerEndpointBytes/2
}

// Targets returns how many proxies this model must configure — the quantity
// behind Fig 3's orchestration-overhead growth.
func (ctl *Controller) Targets() int {
	switch ctl.Model {
	case IstioModel:
		return ctl.c.NumPods()
	case AmbientModel:
		return len(ctl.c.Nodes()) + len(ctl.c.Services())
	case CanalModel:
		// One logical push to the centralized gateway; its internal
		// replication to backends happens inside the public cloud and does
		// not consume southbound bandwidth toward user clusters.
		return 1
	default:
		return 0
	}
}

// PushUpdate models a routing-policy update push (Fig 15's experiment):
// every proxy that carries routing configuration receives its (full-set)
// configuration again.
func (ctl *Controller) PushUpdate() PushStats {
	var bytes int64
	var targets int
	switch ctl.Model {
	case IstioModel:
		targets = ctl.c.NumPods()
		bytes = int64(targets) * int64(ctl.fullConfigBytes())
	case AmbientModel:
		for _, svc := range ctl.c.Services() {
			bytes += int64(ctl.serviceConfigBytes(svc))
			targets++
		}
		for range ctl.c.Nodes() {
			bytes += int64(ctl.nodeL4ConfigBytes())
			targets++
		}
	case CanalModel:
		// Traffic control lives only at the gateway; node proxies carry no
		// routing config and are not touched (§4.1.1).
		targets = 1
		bytes = int64(ctl.fullConfigBytes())
	}
	st := ctl.finish(targets, bytes)
	ctl.pushes = append(ctl.pushes, st)
	return st
}

// PushPodCreation models the configuration work after creating n pods
// (Fig 14's experiment): endpoints changed, so affected proxies need new
// configuration, and the new pods' own proxies (if any) need bootstrapping.
func (ctl *Controller) PushPodCreation(n int) PushStats {
	var bytes int64
	var targets int
	switch ctl.Model {
	case IstioModel:
		// All existing sidecars learn the new endpoints; n new sidecars get
		// full bootstrap configs.
		targets = ctl.c.NumPods()
		bytes = int64(targets) * int64(ctl.fullConfigBytes())
	case AmbientModel:
		targets = len(ctl.c.Nodes()) + len(ctl.c.Services())
		for _, svc := range ctl.c.Services() {
			bytes += int64(ctl.serviceConfigBytes(svc))
		}
		for range ctl.c.Nodes() {
			bytes += int64(ctl.nodeL4ConfigBytes())
		}
	case CanalModel:
		// The gateway learns the endpoints in one push; the on-node proxies
		// of the nodes hosting the new pods get tiny per-pod identity
		// entries — no routing configuration (§4.1.1).
		touchedNodes := len(ctl.c.Nodes())
		if n < touchedNodes {
			touchedNodes = n
		}
		targets = 1 + touchedNodes
		bytes = int64(ctl.fullConfigBytes()) + int64(n)*int64(ctl.Sizing.PerPodIdentityBytes)
	}
	st := ctl.finish(targets, bytes)
	st.Completion += ctl.Sizing.PodStartupTime
	ctl.pushes = append(ctl.pushes, st)
	return st
}

// PushIncremental models a delta push: only the changed endpoints and rules
// are serialized instead of the full configuration set. The paper notes
// incremental updates "would be preferable" but that Istio lacks good
// support (§2.1) — this method quantifies what that support would be worth.
// Targets are unchanged (every proxy needing the data still receives it);
// only the per-target payload shrinks, so Istio drops from O(N^2) to O(N)
// southbound bytes per update.
func (ctl *Controller) PushIncremental(changedEndpoints, changedRules int) PushStats {
	delta := int64(ctl.Sizing.DeltaFramingBytes() +
		changedEndpoints*ctl.Sizing.PerEndpointBytes +
		changedRules*ctl.Sizing.PerRuleBytes)
	targets := ctl.Targets()
	st := ctl.finish(targets, delta*int64(targets))
	ctl.pushes = append(ctl.pushes, st)
	return st
}

// finish derives CPU and completion time from bytes and targets. Building is
// CPU-bound and proportional to built bytes (Fig 4 left); pushing is
// I/O-bound: bandwidth-limited transfer plus per-target overhead (Fig 4
// right: larger clusters take longer to complete, not more CPU).
func (ctl *Controller) finish(targets int, bytes int64) PushStats {
	build := time.Duration(bytes/1024) * ctl.Sizing.BuildCPUPerKB
	transfer := units.Seconds(float64(bytes) / float64(ctl.Sizing.SouthboundBps))
	completion := build + transfer + time.Duration(targets)*ctl.Sizing.PerTargetOverhead
	return PushStats{
		Model:      ctl.Model,
		Targets:    targets,
		Bytes:      bytes,
		BuildCPU:   build,
		Completion: completion,
	}
}

// History returns all pushes performed.
func (ctl *Controller) History() []PushStats { return append([]PushStats(nil), ctl.pushes...) }

// TotalBytes returns cumulative southbound bytes pushed.
func (ctl *Controller) TotalBytes() int64 {
	var n int64
	for _, p := range ctl.pushes {
		n += p.Bytes
	}
	return n
}

// UpdateFrequency estimates configuration updates per minute for a cluster,
// following Table 2's observation that frequency grows with the number of
// services (each service updates independently at perServicePerMin).
func UpdateFrequency(services int, perServicePerMin float64) float64 {
	return float64(services) * perServicePerMin
}

// SidecarResources computes the aggregate sidecar resource bill for an
// Istio-model cluster (Table 1): every pod carries a sidecar of the given
// request.
func SidecarResources(pods int, perSidecar cluster.Resources) cluster.Resources {
	return cluster.Resources{
		MilliCPU: pods * perSidecar.MilliCPU,
		MemMB:    pods * perSidecar.MemMB,
	}
}
