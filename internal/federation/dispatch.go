package federation

import (
	"maps"
	"time"

	"canalmesh/internal/cloud"
	"canalmesh/internal/gateway"
	"canalmesh/internal/l7"
	"canalmesh/internal/trace"
)

// Dispatch routes one request entering the mesh in the named region:
// locality first (in-region backends via the region's own gateway), with
// health-gated spillover to the best healthy peer when local capacity
// collapses. done receives the end-to-end latency (including any WAN
// crossings) and the final status.
//
// When tr is non-nil every hop is attributed onto it: local serves record a
// gateway hop, spilled serves additionally record the two WAN crossings as
// WAN-segment hops — and the request carries a W3C traceparent across the
// peering boundary, which the receiving region validates before joining its
// hops to the trace.
func (m *Mesh) Dispatch(from string, svc *Service, clientAZ string, flow cloud.SessionKey, req l7.Request, costMult float64, tr *trace.Trace, done func(lat time.Duration, status int)) {
	r := m.byName[from]
	if r == nil || svc == nil {
		done(0, l7.StatusUnavailable)
		return
	}
	id := svc.ids[from]
	health := r.serviceHealth(id)
	if r.shouldSpill(id, health) {
		if peer := r.bestPeer(svc); peer != nil {
			r.spill(peer, svc, clientAZ, flow, req, costMult, tr, done)
			return
		}
		// No routable peer: serve locally if anything is alive at all.
		if health <= 0 {
			r.stats.Unserved++
			done(0, l7.StatusUnavailable)
			return
		}
	}
	r.serveLocal(id, clientAZ, flow, req, costMult, tr, done)
}

// serviceHealth is the local alive-capacity fraction of a service: alive
// replicas over total replicas across its in-region backends.
func (r *Region) serviceHealth(id uint64) float64 {
	st := r.gw.Service(id)
	if st == nil {
		return 0
	}
	total, alive := 0, 0
	for _, b := range st.Backends {
		for _, rep := range b.Replicas {
			total++
			if !rep.VM.Failed() {
				alive++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(alive) / float64(total)
}

// shouldSpill decides deterministically whether THIS request crosses the
// WAN. Health at or above the gate never spills; zero health always spills;
// in between, the excess load share (1 - health/gate) spills via a
// fractional accumulator so surviving local capacity stays utilized while
// the overflow sheds to peers.
func (r *Region) shouldSpill(id uint64, health float64) bool {
	if health >= spillGate {
		return false
	}
	if health <= 0 {
		return true
	}
	frac := 1 - health/spillGate
	r.spillAcc[id] += frac
	if r.spillAcc[id] >= 1 {
		r.spillAcc[id]--
		return true
	}
	return false
}

// bestPeer picks the spill target for a service: among peers whose peering
// is (detected) active and whose imported view advertises at least one
// endpoint, the one with the most imported endpoints, ties broken by region
// name — deterministic and driven purely by the importer's acked knowledge.
func (r *Region) bestPeer(svc *Service) *Peering {
	var best *Peering
	bestN := 0
	for _, p := range r.mesh.peerings {
		peer := p.other(r)
		if peer == nil || !p.usable() {
			continue
		}
		st := p.importStream(r)
		n := st.importedEndpoints(svc.FullName())
		if n > bestN || (n == bestN && n > 0 && best != nil && peer.name < best.other(r).name) {
			best, bestN = p, n
		}
	}
	return best
}

// serveLocal dispatches on the region's own gateway and records one
// gateway hop (the gateway's measured processing latency, attributed as
// CPU: queueing and service are both on-gateway time).
func (r *Region) serveLocal(id uint64, clientAZ string, flow cloud.SessionKey, req l7.Request, costMult float64, tr *trace.Trace, done func(time.Duration, int)) {
	s := r.mesh.cfg.Sim
	arrive := s.Now()
	r.stats.Local++
	r.gw.Dispatch(id, clientAZ, flow, req, costMult, func(lat time.Duration, status int) {
		if tr != nil {
			tr.AddHop(trace.Hop{
				Name:  "gateway@" + r.name,
				Start: arrive, End: s.Now(),
				CPU: lat,
			})
		}
		done(s.Now()-arrive, status)
	})
}

// spill sends the request across the WAN to the peer region and back. The
// request carries a traceparent across the peering hop; the peer validates
// it against the carried trace before joining its hops. A physically
// partitioned link blackholes the request: it fails after the full WAN
// round trip (the caller's timeout), the split-brain window's signature.
func (r *Region) spill(p *Peering, svc *Service, clientAZ string, flow cloud.SessionKey, req l7.Request, costMult float64, tr *trace.Trace, done func(time.Duration, int)) {
	s := r.mesh.cfg.Sim
	peer := p.other(r)
	arrive := s.Now()
	oneWay := r.mesh.wan.RTT / 2

	// Propagate the trace context across the region boundary the same way
	// the live path does: a W3C traceparent request header, set on a copy of
	// the header map so the caller's request is left as it was.
	if tr != nil {
		hdr := make(map[string]string, len(req.Headers)+1)
		maps.Copy(hdr, req.Headers)
		hdr[trace.TraceparentHeader] = trace.Traceparent(tr.ID, tr.Root().ID, tr.Sampled)
		req.Headers = hdr
	}

	if p.partitioned {
		// Blackholed: the request dies on the dead link and the client sees
		// a timeout one round trip later.
		r.stats.SpillLost++
		s.After(2*oneWay, func() {
			if tr != nil {
				tr.AddHop(trace.Hop{
					Name:  "wan:" + r.name + "->" + peer.name + " (lost)",
					Start: arrive, End: s.Now(),
					WAN: 2 * oneWay,
				})
			}
			done(s.Now()-arrive, l7.StatusUnavailable)
		})
		return
	}

	r.stats.Spilled++
	s.After(oneWay, func() {
		wanIn := s.Now()
		// The receiving region only joins the carried trace when the
		// propagated context matches it — the cross-region equivalent of
		// extracting the traceparent header.
		joined := tr
		if tr != nil {
			id, parent, sampled, err := trace.ParseTraceparent(req.Headers[trace.TraceparentHeader])
			if err != nil || id != tr.ID || parent != tr.Root().ID || sampled != tr.Sampled {
				joined = nil
			}
		}
		if joined != nil {
			joined.AddHop(trace.Hop{
				Name:  "wan:" + r.name + "->" + peer.name,
				Start: arrive, End: wanIn,
				WAN: oneWay,
			})
		}
		peerID := svc.ids[peer.name]
		gwArrive := s.Now()
		peer.gw.Dispatch(peerID, clientAZ, flow, req, costMult, func(lat time.Duration, status int) {
			if joined != nil {
				joined.AddHop(trace.Hop{
					Name:  "gateway@" + peer.name,
					Start: gwArrive, End: s.Now(),
					CPU: lat,
				})
			}
			backStart := s.Now()
			s.After(oneWay, func() {
				if joined != nil {
					joined.AddHop(trace.Hop{
						Name:  "wan:" + peer.name + "->" + r.name,
						Start: backStart, End: s.Now(),
						WAN: oneWay,
					})
				}
				done(s.Now()-arrive, status)
			})
		})
	})
}

// ImportedEndpoints returns how many endpoints of the service the named
// region's import view currently advertises from the named peer.
func (m *Mesh) ImportedEndpoints(region, peer string, svc *Service) int {
	p := m.Peering(region, peer)
	r := m.byName[region]
	if p == nil || r == nil || svc == nil {
		return 0
	}
	st := p.importStream(r)
	if st == nil {
		return 0
	}
	return st.importedEndpoints(svc.FullName())
}

// gatewayService is a tiny helper for tests that need the region-local
// registration.
func (r *Region) gatewayService(svc *Service) *gateway.ServiceState {
	return r.gw.Service(svc.ids[r.name])
}
