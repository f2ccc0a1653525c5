// Package federation extends the Canal topology across regions: peered mesh
// gateways exchange exported-service endpoint and policy resources over an
// explicit peering-session protocol (establish / heartbeat / disconnect-epoch
// / resync, reusing the configpush delta machinery as the wire format), and
// the dispatch path prefers in-region backends, spilling over to a healthy
// peer region — with the WAN crossing priced and trace-attributed as its own
// segment — only when local capacity or health collapses.
//
// The protocol is modeled on Consul's cluster-peering stream: each direction
// of a peering is one delta subscription (the importer is a ScopeMesh watch
// session on the exporter's distributor), heartbeats double as the
// export-set refresh tick, a missed-heartbeat timeout disconnects the
// session and bumps the peering epoch so in-flight deliveries are dropped,
// and a heal reconnects it — one combined catch-up delta when the importer's
// acked version is still retained, a full resync when it aged out.
package federation

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"canalmesh/internal/cloud"
	"canalmesh/internal/controlplane"
	"canalmesh/internal/gateway"
	"canalmesh/internal/l7"
	"canalmesh/internal/netmodel"
	"canalmesh/internal/sim"
	"canalmesh/internal/trace"
)

const (
	// Heartbeat is the peering keepalive and export-refresh interval.
	Heartbeat = time.Second
	// FailAfter is how many consecutive missed heartbeats disconnect a
	// peering.
	FailAfter = 3
	// spillGate is the local-health threshold below which cross-region
	// spillover engages, as an alive-replica fraction.
	spillGate = 0.5
)

// Config parameterizes a Mesh.
type Config struct {
	Sim *sim.Sim
	// Tracer, when set, records per-request hop attribution — including the
	// WAN segments of spilled requests — on traces passed to Dispatch.
	Tracer *trace.Tracer
}

// Mesh is a set of peered region gateways sharing a service registry.
type Mesh struct {
	cfg Config
	// wan prices every inter-region link: the calibrated cross-region RTT
	// at DefaultWANBps.
	wan netmodel.WANLink
	// sizing prices the peering streams' resources and framing.
	sizing   controlplane.Sizing
	regions  []*Region // name-sorted
	byName   map[string]*Region
	peerings []*Peering // sorted by (A, B) name pair
	services []*Service // fullname-sorted
	svcByKey map[string]*Service
	started  bool
	ticking  bool
}

// New creates an empty mesh. Add regions and services, peer the regions,
// then Start it before driving load.
func New(cfg Config) *Mesh {
	if cfg.Sim == nil {
		panic("federation: Config.Sim is required")
	}
	return &Mesh{
		cfg:      cfg,
		wan:      netmodel.WANLink{RTT: netmodel.Default().CrossRegion, Bps: netmodel.DefaultWANBps},
		sizing:   controlplane.DefaultSizing(),
		byName:   make(map[string]*Region),
		svcByKey: make(map[string]*Service),
	}
}

// Region is one member of the federation: a cloud region and its mesh
// gateway, plus the per-region routing counters the experiments read.
type Region struct {
	mesh  *Mesh
	name  string
	cloud *cloud.Region
	gw    *gateway.Gateway

	// spillAcc is the per-service fractional-spill accumulator: when local
	// health sits between zero and the gate, the excess load share spills
	// deterministically (the same accumulator discipline as
	// workload.OpenLoop) instead of all-or-nothing.
	spillAcc map[uint64]float64

	stats RegionStats
}

// RegionStats counts how one region's ingress traffic was routed.
type RegionStats struct {
	// Local requests were served by in-region backends.
	Local int
	// Spilled requests crossed the WAN to a healthy peer region.
	Spilled int
	// SpillLost requests were routed to a peer across a physically
	// partitioned link before the peering timed out — the split-brain
	// window's blackholed traffic.
	SpillLost int
	// Unserved requests found no healthy backend anywhere.
	Unserved int
}

// AddRegion registers a cloud region + gateway under the region's name.
// Call before Peer/Start; duplicate names panic.
func (m *Mesh) AddRegion(cr *cloud.Region, gw *gateway.Gateway) *Region {
	if m.started {
		panic("federation: AddRegion after Start")
	}
	if _, dup := m.byName[cr.Name]; dup {
		panic(fmt.Sprintf("federation: duplicate region %q", cr.Name))
	}
	r := &Region{mesh: m, name: cr.Name, cloud: cr, gw: gw, spillAcc: make(map[uint64]float64)}
	m.byName[cr.Name] = r
	m.regions = append(m.regions, r)
	sort.Slice(m.regions, func(i, j int) bool { return m.regions[i].name < m.regions[j].name })
	return r
}

// Region returns the named region, or nil.
func (m *Mesh) Region(name string) *Region { return m.byName[name] }

// Regions returns the regions in name order.
func (m *Mesh) Regions() []*Region { return m.regions }

// Name returns the region's name.
func (r *Region) Name() string { return r.name }

// Gateway returns the region's mesh gateway.
func (r *Region) Gateway() *gateway.Gateway { return r.gw }

// Cloud returns the region's cloud substrate.
func (r *Region) Cloud() *cloud.Region { return r.cloud }

// Stats returns the region's routing counters.
func (r *Region) Stats() RegionStats { return r.stats }

// Service is one tenant service registered in every federation region. Its
// per-region gateway registrations share the tenant/name/VNI identity, so a
// spilled request is served by the same logical service on the peer side.
type Service struct {
	Tenant string
	Name   string

	ids    map[string]uint64 // region name -> gateway service ID
	states map[string]*gateway.ServiceState
	// policyRev versions the service's exported policy resource; TouchPolicy
	// bumps it so the next export refresh ships a policy delta.
	policyRev int
}

// AddService registers the service on every region's gateway and exports it
// over every peering. Call after AddRegion and before Start.
func (m *Mesh) AddService(tenant, name string, vni uint32, addr netip.Addr, port uint16, https bool, l7cfg l7.ServiceConfig) (*Service, error) {
	if m.started {
		return nil, fmt.Errorf("federation: AddService after Start")
	}
	if len(m.regions) == 0 {
		return nil, fmt.Errorf("federation: AddService before any AddRegion")
	}
	key := tenant + "/" + name
	if _, dup := m.svcByKey[key]; dup {
		return nil, fmt.Errorf("federation: duplicate service %s", key)
	}
	svc := &Service{
		Tenant: tenant,
		Name:   name,
		ids:    make(map[string]uint64, len(m.regions)),
		states: make(map[string]*gateway.ServiceState, len(m.regions)),
	}
	for _, r := range m.regions {
		st, err := r.gw.RegisterService(tenant, name, vni, addr, port, https, l7cfg)
		if err != nil {
			return nil, fmt.Errorf("federation: register %s in %s: %w", key, r.name, err)
		}
		svc.ids[r.name] = st.ID
		svc.states[r.name] = st
	}
	m.svcByKey[key] = svc
	m.services = append(m.services, svc)
	sort.Slice(m.services, func(i, j int) bool { return m.services[i].FullName() < m.services[j].FullName() })
	return svc, nil
}

// Service returns the registered service with the given tenant/name, or nil.
func (m *Mesh) Service(tenant, name string) *Service { return m.svcByKey[tenant+"/"+name] }

// FullName returns tenant/name.
func (s *Service) FullName() string { return s.Tenant + "/" + s.Name }

// TouchPolicy bumps the service's exported policy revision: the next export
// refresh on every peering ships the changed policy resource as a delta.
func (s *Service) TouchPolicy() { s.policyRev++ }

// PeerAll creates a peering between every pair of registered regions.
func (m *Mesh) PeerAll() {
	for i := 0; i < len(m.regions); i++ {
		for j := i + 1; j < len(m.regions); j++ {
			m.Peer(m.regions[i].name, m.regions[j].name)
		}
	}
}

// Peer creates (or returns) the peering between two regions. The peering is
// undirected but contains one delta stream per direction.
func (m *Mesh) Peer(a, b string) *Peering {
	if p := m.Peering(a, b); p != nil {
		return p
	}
	ra, rb := m.byName[a], m.byName[b]
	if ra == nil || rb == nil {
		panic(fmt.Sprintf("federation: Peer(%q, %q): unknown region", a, b))
	}
	if ra.name > rb.name {
		ra, rb = rb, ra
	}
	p := newPeering(m, ra, rb)
	m.peerings = append(m.peerings, p)
	sort.Slice(m.peerings, func(i, j int) bool {
		if m.peerings[i].a.name != m.peerings[j].a.name {
			return m.peerings[i].a.name < m.peerings[j].a.name
		}
		return m.peerings[i].b.name < m.peerings[j].b.name
	})
	return p
}

// Peering returns the peering between two regions (either argument order),
// or nil.
func (m *Mesh) Peering(a, b string) *Peering {
	for _, p := range m.peerings {
		if (p.a.name == a && p.b.name == b) || (p.a.name == b && p.b.name == a) {
			return p
		}
	}
	return nil
}

// Start establishes every peering (the initial full sync of each export
// stream goes on the WAN now) and runs the heartbeat loop until stop
// returns true. Call after regions, services, and peerings are set up.
// Calling it again after the loop stopped re-arms the heartbeat without
// re-establishing — how a facade resumes a mesh across run windows.
func (m *Mesh) Start(stop func() bool) {
	if !m.started {
		m.started = true
		for _, p := range m.peerings {
			p.establish()
		}
	}
	if m.ticking {
		return
	}
	m.ticking = true
	m.cfg.Sim.Every(Heartbeat, func() bool {
		if stop() {
			m.ticking = false
			return false
		}
		for _, p := range m.peerings {
			p.tick()
		}
		return true
	})
}

// Partition severs the physical link between two regions: heartbeats and
// payload deliveries stop crossing it at once (in-flight deltas are lost on
// the wire), but the protocol only NOTICES after FailAfter missed
// heartbeats, when the peering transitions to StateDown and bumps its
// epoch. Until then, spilled requests routed over the dead link are
// blackholed — the split-brain window.
func (m *Mesh) Partition(a, b string) error {
	p := m.Peering(a, b)
	if p == nil {
		return fmt.Errorf("federation: no peering between %q and %q", a, b)
	}
	if !p.partitioned {
		p.partitioned = true
		// The link is dead NOW: detach both watch sessions so bytes stop
		// flowing and anything mid-flight is dropped. The state machine
		// catches up at the heartbeat timeout.
		p.ab.dist.Disconnect(p.ab.sess.ID)
		p.ba.dist.Disconnect(p.ba.sess.ID)
	}
	return nil
}

// Heal restores the link between two regions. The next heartbeat reconnects
// the peering's streams: one combined catch-up delta per direction when the
// peer's acked version is still retained, a full resync otherwise.
func (m *Mesh) Heal(a, b string) error {
	p := m.Peering(a, b)
	if p == nil {
		return fmt.Errorf("federation: no peering between %q and %q", a, b)
	}
	p.partitioned = false
	return nil
}
