package federation

import (
	"hash/fnv"
	"strconv"
	"time"

	"canalmesh/internal/configpush"
	"canalmesh/internal/controlplane"
)

// State is a peering session's lifecycle phase.
type State uint8

const (
	// StateEstablishing: the initial full syncs are on the WAN; spillover
	// is not yet available in either direction.
	StateEstablishing State = iota
	// StateActive: both directions acked — exported services are routable.
	StateActive
	// StateDown: the peering missed FailAfter heartbeats and disconnected;
	// spillover over it is disabled until a heal reconnects it.
	StateDown
)

// String renders the state for tables and logs.
func (s State) String() string {
	switch s {
	case StateEstablishing:
		return "establishing"
	case StateActive:
		return "active"
	case StateDown:
		return "down"
	default:
		return "state?"
	}
}

// Peering is one undirected region pair with a delta stream per direction.
// Its session protocol: establish publishes each side's export set as a full
// sync; every heartbeat refreshes the export sets (publishing deltas when
// content moved) and confirms liveness; FailAfter missed heartbeats
// disconnect both streams and bump the epoch (in-flight deliveries drop);
// a heal reconnects — catch-up delta inside the retain window, full resync
// past it.
type Peering struct {
	mesh *Mesh
	a, b *Region
	ab   *stream // a exports -> b imports
	ba   *stream // b exports -> a imports

	state       State
	partitioned bool
	epoch       int
	lastContact time.Duration

	// Reconnects counts heal-triggered resumes; EstablishedAt is when the
	// peering first reached StateActive.
	Reconnects    int
	EstablishedAt time.Duration
}

// newPeering wires the two directed export streams. a.name < b.name.
func newPeering(m *Mesh, a, b *Region) *Peering {
	p := &Peering{mesh: m, a: a, b: b}
	p.ab = newStream(m, a, b)
	p.ba = newStream(m, b, a)
	return p
}

// State returns the peering's lifecycle phase.
func (p *Peering) State() State { return p.state }

// Epoch returns the disconnect epoch: bumped each time the peering goes
// down, so deliveries from before the disconnect can never be mistaken for
// current ones.
func (p *Peering) Epoch() int { return p.epoch }

// Regions returns the peered region names, lexicographically ordered.
func (p *Peering) Regions() (string, string) { return p.a.name, p.b.name }

// SessionTo returns the watch session importing INTO the named region —
// the handle tests assert resync/delta behavior on. Nil for a non-member.
func (p *Peering) SessionTo(region string) *configpush.Session {
	switch region {
	case p.b.name:
		return p.ab.sess
	case p.a.name:
		return p.ba.sess
	default:
		return nil
	}
}

// DistributorTo returns the export distributor feeding the named region.
func (p *Peering) DistributorTo(region string) *configpush.Distributor {
	switch region {
	case p.b.name:
		return p.ab.dist
	case p.a.name:
		return p.ba.dist
	default:
		return nil
	}
}

// establish starts the session: both export sets are derived and published,
// which bootstraps each importer with a full sync over the WAN link.
func (p *Peering) establish() {
	p.lastContact = p.mesh.cfg.Sim.Now()
	p.ab.refresh()
	p.ba.refresh()
}

// tick is one heartbeat: refresh the export sets (the exporters keep
// publishing even into a partition — that is what ages the importer's acked
// version toward eviction), then drive the liveness state machine.
func (p *Peering) tick() {
	now := p.mesh.cfg.Sim.Now()
	p.ab.refresh()
	p.ba.refresh()
	if p.partitioned {
		timeout := FailAfter * Heartbeat
		if p.state != StateDown && now-p.lastContact >= timeout {
			p.down()
		}
		return
	}
	p.lastContact = now
	switch {
	case p.state == StateEstablishing:
		if p.ab.sess.Acked() > 0 && p.ba.sess.Acked() > 0 {
			p.state = StateActive
			p.EstablishedAt = now
		}
	case p.state == StateDown || !p.ab.sess.Connected() || !p.ba.sess.Connected():
		// Either the timeout fired (Down) or the link blipped shorter than
		// the detection window — both resume with a catch-up.
		p.reconnect()
	}
}

// down marks the peering disconnected: the epoch bump records the protocol
// incarnation, and versions published while down accrue against the
// importer's acked base. (The sessions were already detached at the
// physical link cut.)
func (p *Peering) down() {
	p.state = StateDown
	p.epoch++
}

// reconnect resumes both directions after a heal. configpush serves each
// importer one combined catch-up delta from its acked version — or a full
// resync when that version aged out of the retain window.
func (p *Peering) reconnect() {
	p.state = StateActive
	p.Reconnects++
	p.ab.dist.Reconnect(p.ab.sess.ID)
	p.ba.dist.Reconnect(p.ba.sess.ID)
}

// usable reports whether the routing layer may spill over this peering.
// Routing is gated on the DETECTED state, not the physical link: during the
// split-brain window (partitioned but not yet timed out) the peering still
// advertises usable and spilled requests are blackholed.
func (p *Peering) usable() bool { return p.state == StateActive }

// other returns the peer of r on this peering, or nil.
func (p *Peering) other(r *Region) *Region {
	switch r {
	case p.a:
		return p.b
	case p.b:
		return p.a
	default:
		return nil
	}
}

// importStream returns the stream importing into r, or nil.
func (p *Peering) importStream(r *Region) *stream {
	switch r {
	case p.b:
		return p.ab
	case p.a:
		return p.ba
	default:
		return nil
	}
}

// stream is one direction of a peering: the exporter region publishes its
// exported-service resources through a dedicated configpush distributor
// whose single subscriber is the importer. The distributor's southbound
// link is sized to the WAN link between the two regions, so establish
// syncs, deltas, and resyncs are priced at WAN bandwidth and RTT.
type stream struct {
	exporter, importer *Region

	dist *configpush.Distributor
	sess *configpush.Session

	// sizing is the WAN-priced link sizing this stream sends at.
	sizing controlplane.Sizing

	// exported is the last derived export set, served to the distributor
	// through its Resources callback; lastHash gates publishing on change.
	exported []configpush.Resource
	lastHash uint64

	// Import view cache: endpoint counts per service at the acked version.
	viewVersion uint64
	viewCounts  map[string]int
}

// newStream builds the directed export pipe exporter->importer.
func newStream(m *Mesh, exporter, importer *Region) *stream {
	st := &stream{exporter: exporter, importer: importer}
	sizing := m.sizing
	sizing.SouthboundBps = m.wan.Bps
	// A payload is acknowledged one WAN round trip after its bytes land.
	sizing.PerTargetOverhead = m.wan.RTT
	st.sizing = sizing
	st.dist = configpush.New(configpush.Config{
		Sim:       m.cfg.Sim,
		Resources: func() []configpush.Resource { return st.exported },
		Sizing:    sizing,
		// Heartbeat-paced publishing needs no extra coalescing window.
		Debounce: 0,
	})
	st.sess = st.dist.Subscribe("peer/"+importer.name, configpush.Scope{Kind: configpush.ScopeMesh})
	return st
}

// refresh re-derives the exporter's export set and publishes a new version
// when (and only when) its content hash moved, so steady state costs no
// southbound bytes.
func (st *stream) refresh() {
	res := st.exporter.exportResources(st.dist)
	h := fnv.New64a()
	for _, r := range res {
		_, _ = h.Write([]byte(r.Key()))
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(r.Hash >> (8 * i))
		}
		_, _ = h.Write(buf[:])
	}
	sum := h.Sum64()
	if sum == st.lastHash {
		return
	}
	st.lastHash = sum
	st.exported = res
	st.dist.Notify()
}

// importedEndpoints returns how many endpoints of the service the importer
// currently believes the exporter has, read from the snapshot at the
// session's ACKED version — the importer's knowledge, not the exporter's
// truth. During a partition this view freezes; if the acked version has
// been evicted the view is empty (too stale to trust).
func (st *stream) importedEndpoints(fullName string) int {
	acked := st.sess.Acked()
	if acked == 0 {
		return 0
	}
	if st.viewVersion != acked || st.viewCounts == nil {
		snap := st.dist.Store().Get(acked)
		st.viewCounts = make(map[string]int)
		st.viewVersion = acked
		if snap != nil {
			for _, r := range snap.Resources() {
				if r.Kind == configpush.KindEndpoint {
					st.viewCounts[r.Service]++
				}
			}
		}
	}
	return st.viewCounts[fullName]
}

// exportResources derives a region's export set: one endpoint resource per
// alive backend of each federated service (its hash moves with the alive
// replica count, so partial failures publish) plus one policy resource per
// service (its hash moves with TouchPolicy). Failed backends simply drop
// out of the set — the diff turns them into tombstones on the wire.
func (r *Region) exportResources(d *configpush.Distributor) []configpush.Resource {
	sz := r.mesh.sizing
	var out []configpush.Resource
	for _, svc := range r.mesh.services {
		full := svc.FullName()
		st := svc.states[r.name]
		if st == nil {
			continue
		}
		for _, b := range st.Backends {
			if !b.Alive() {
				continue
			}
			alive := 0
			for _, rep := range b.Replicas {
				if !rep.VM.Failed() {
					alive++
				}
			}
			out = append(out, configpush.Resource{
				Kind:    configpush.KindEndpoint,
				Name:    full + "@" + b.ID,
				Node:    b.ID,
				Service: full,
				Bytes:   sz.PerEndpointBytes,
				Hash:    hashParts("fed-ep", r.name, full, b.ID, strconv.Itoa(alive)),
			})
		}
		out = append(out, configpush.Resource{
			Kind:    configpush.KindRuleSet,
			Name:    full,
			Service: full,
			Bytes:   4 * sz.PerRuleBytes,
			Hash:    hashParts("fed-rules", r.name, full, strconv.Itoa(svc.policyRev)),
		})
	}
	return out
}

// hashParts content-addresses an exported resource from its identifying
// fields (FNV-1a, NUL-separated — the same discipline as configpush).
func hashParts(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		_, _ = h.Write([]byte(p))
		_, _ = h.Write([]byte{0})
	}
	return h.Sum64()
}

// Sizing returns the per-stream sizing actually used toward the named
// importer (WAN-bandwidth southbound, WAN-RTT ack overhead).
func (p *Peering) Sizing(importer string) controlplane.Sizing {
	if st := p.importStream(p.mesh.byName[importer]); st != nil {
		return st.sizing
	}
	return controlplane.Sizing{}
}
