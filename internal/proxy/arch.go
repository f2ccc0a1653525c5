package proxy

import (
	"time"

	"canalmesh/internal/l7"
	"canalmesh/internal/sim"
)

// respL7Factor scales L7 processing cost on the response path (header-only
// handling, no route matching).
const respL7Factor = 0.5

func half(d time.Duration) time.Duration { return sim.Scale(d, respL7Factor) }

// Direct is the no-service-mesh baseline: client talks straight to the
// server over the kernel stack.
type Direct struct {
	Cfg                  Config
	ClientApp, ServerApp *Endpoint
}

// Name implements Mesh.
func (m *Direct) Name() string { return "none" }

// UserProcs implements Mesh.
func (m *Direct) UserProcs() []*sim.Processor { return nil }

// CloudProcs implements Mesh.
func (m *Direct) CloudProcs() []*sim.Processor { return nil }

// Send implements Mesh.
func (m *Direct) Send(req *l7.Request, done func(time.Duration, int)) {
	c := &m.Cfg
	body := req.BodyBytes
	net := c.Costs.OneWay(m.ClientApp.Place, m.ServerApp.Place)
	ch := c.newChain(m.Name(), req, done)
	ch.add(
		step{at: m.ClientApp, cpu: c.Costs.StackPass + c.Costs.CopyCost(body)},
		step{at: m.ServerApp, lat: net, cpu: c.Costs.StackPass + c.Costs.AppService},
		step{at: m.ClientApp, lat: net, cpu: c.Costs.StackPass},
	)
	ch.run(l7.StatusOK)
}

// Istio is the per-pod sidecar architecture: every request traverses the
// client's sidecar and the server's sidecar at L7, redirected through
// iptables on both sides (Fig 21).
type Istio struct {
	Cfg                          Config
	ClientApp, ServerApp         *Endpoint
	ClientSidecar, ServerSidecar *Endpoint
}

// Name implements Mesh.
func (m *Istio) Name() string { return "istio" }

// UserProcs implements Mesh.
func (m *Istio) UserProcs() []*sim.Processor {
	return []*sim.Processor{m.ClientSidecar.Proc, m.ServerSidecar.Proc}
}

// CloudProcs implements Mesh.
func (m *Istio) CloudProcs() []*sim.Processor { return nil }

// Send implements Mesh.
func (m *Istio) Send(req *l7.Request, done func(time.Duration, int)) {
	c := &m.Cfg
	body := req.BodyBytes
	status := c.route(req)
	asymCPU, asymLat := c.asymFor(req)
	l7Cost := c.Costs.L7Cost(body)
	sym := c.tlsCost(req, body)
	net := c.Costs.OneWay(m.ClientSidecar.Place, m.ServerSidecar.Place)
	ch := c.newChain(m.Name(), req, done)

	// App emits; iptables redirect into the client sidecar; L7 routing (and
	// the mTLS handshake on new connections) happens there.
	ch.add(
		step{at: m.ClientApp, cpu: c.Costs.StackPass + c.Costs.CopyCost(body)},
		step{at: m.ClientSidecar, cpu: c.redirectCost(false, body) + l7Cost + sym + asymCPU, lat: asymLat, crypto: sym + asymCPU},
	)
	if status != l7.StatusOK {
		// Local response from the client sidecar (denied / rate limited).
		ch.run(status)
		return
	}
	ch.add(
		// Server side: sidecar terminates mTLS (its own asym phase on new
		// connections), processes L7 again, and hands off to the app.
		step{at: m.ServerSidecar, lat: net + asymLat, cpu: c.redirectCost(false, body) + l7Cost + sym + asymCPU, crypto: sym + asymCPU},
		step{at: m.ServerApp, cpu: c.Costs.StackPass + c.Costs.AppService},
		// Response path back through both sidecars.
		step{at: m.ServerSidecar, cpu: half(l7Cost) + sym, crypto: sym},
		step{at: m.ClientSidecar, lat: net, cpu: half(l7Cost) + sym, crypto: sym},
		step{at: m.ClientApp, cpu: c.Costs.StackPass},
	)
	ch.run(status)
}

// Ambient is the split architecture: per-node L4 proxies handle transport
// and zero-trust tunneling; a shared per-service waypoint performs the
// single L7 traversal.
type Ambient struct {
	Cfg                  Config
	ClientApp, ServerApp *Endpoint
	ClientL4, ServerL4   *Endpoint
	Waypoint             *Endpoint
}

// Name implements Mesh.
func (m *Ambient) Name() string { return "ambient" }

// UserProcs implements Mesh.
func (m *Ambient) UserProcs() []*sim.Processor {
	return []*sim.Processor{m.ClientL4.Proc, m.ServerL4.Proc, m.Waypoint.Proc}
}

// CloudProcs implements Mesh.
func (m *Ambient) CloudProcs() []*sim.Processor { return nil }

// Send implements Mesh.
func (m *Ambient) Send(req *l7.Request, done func(time.Duration, int)) {
	c := &m.Cfg
	body := req.BodyBytes
	status := c.route(req)
	asymCPU, asymLat := c.asymFor(req)
	l7Cost := c.Costs.L7Cost(body)
	sym := c.tlsCost(req, body)
	l4 := c.Costs.L4Process
	ch := c.newChain(m.Name(), req, done)

	toWaypoint := c.Costs.OneWay(m.ClientL4.Place, m.Waypoint.Place)
	toServer := c.Costs.OneWay(m.Waypoint.Place, m.ServerL4.Place)

	ch.add(
		step{at: m.ClientApp, cpu: c.Costs.StackPass + c.Costs.CopyCost(body)},
		step{at: m.ClientL4, cpu: c.redirectCost(false, body) + l4 + sym + asymCPU, lat: asymLat, crypto: sym + asymCPU},
		step{at: m.Waypoint, lat: toWaypoint, cpu: l7Cost + sym, crypto: sym},
	)
	if status != l7.StatusOK {
		ch.run(status)
		return
	}
	ch.add(
		step{at: m.ServerL4, lat: toServer, cpu: l4 + sym, crypto: sym},
		step{at: m.ServerApp, cpu: c.Costs.StackPass + c.Costs.AppService},
		// Response: L4 -> waypoint (light L7) -> L4 -> app.
		step{at: m.ServerL4, cpu: l4 + sym, crypto: sym},
		step{at: m.Waypoint, lat: toServer, cpu: half(l7Cost) + sym, crypto: sym},
		step{at: m.ClientL4, lat: toWaypoint, cpu: l4 + sym, crypto: sym},
		step{at: m.ClientApp, cpu: c.Costs.StackPass},
	)
	ch.run(status)
}

// Canal is the paper's architecture: minimal on-node proxies for security
// and observability, with all traffic hairpinned through the centralized
// multi-tenant mesh gateway for the single L7 traversal (§3.3).
type Canal struct {
	Cfg                    Config
	ClientApp, ServerApp   *Endpoint
	ClientNode, ServerNode *Endpoint // on-node proxies
	Gateway                *Endpoint // a gateway replica in the public cloud
}

// Name implements Mesh.
func (m *Canal) Name() string { return "canal" }

// UserProcs implements Mesh.
func (m *Canal) UserProcs() []*sim.Processor {
	return []*sim.Processor{m.ClientNode.Proc, m.ServerNode.Proc}
}

// CloudProcs implements Mesh.
func (m *Canal) CloudProcs() []*sim.Processor { return []*sim.Processor{m.Gateway.Proc} }

// Send implements Mesh.
func (m *Canal) Send(req *l7.Request, done func(time.Duration, int)) {
	c := &m.Cfg
	body := req.BodyBytes
	status := c.route(req)
	asymCPU, asymLat := c.asymFor(req)
	l7Cost := c.Costs.GatewayL7Cost(body)
	sym := c.tlsCost(req, body)
	// The shared on-node proxy additionally labels traffic per pod for
	// fine-grained observability (Appendix A).
	l4 := c.Costs.L4Process + c.Costs.L4Observe
	ch := c.newChain(m.Name(), req, done)

	toGW := c.Costs.OneWay(m.ClientNode.Place, m.Gateway.Place)
	fromGW := c.Costs.OneWay(m.Gateway.Place, m.ServerNode.Place)

	ch.add(
		step{at: m.ClientApp, cpu: c.Costs.StackPass + c.Costs.CopyCost(body)},
		// On-node proxy: eBPF redirect, L4 observability tagging, mTLS
		// encryption; the asymmetric phase rides the key server.
		step{at: m.ClientNode, cpu: c.redirectCost(c.EBPFRedirect, body) + l4 + sym + asymCPU, lat: asymLat, crypto: sym + asymCPU},
		// Hairpin to the mesh gateway in the public cloud.
		step{at: m.Gateway, lat: toGW, cpu: l7Cost + 2*sym, crypto: 2 * sym},
	)
	if status != l7.StatusOK {
		ch.run(status)
		return
	}
	ch.add(
		step{at: m.ServerNode, lat: fromGW, cpu: l4 + sym, crypto: sym},
		step{at: m.ServerApp, cpu: c.Costs.StackPass + c.Costs.AppService},
		// Response hairpins back through the gateway.
		step{at: m.ServerNode, cpu: l4 + sym, crypto: sym},
		step{at: m.Gateway, lat: fromGW, cpu: half(l7Cost) + 2*sym, crypto: 2 * sym},
		step{at: m.ClientNode, lat: toGW, cpu: l4 + sym, crypto: sym},
		step{at: m.ClientApp, cpu: c.Costs.StackPass},
	)
	ch.run(status)
}
