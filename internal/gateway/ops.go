package gateway

import (
	"fmt"
	"time"

	"canalmesh/internal/l7"
)

// Throttle rate-limits a service at the gateway — early dropping before any
// L7 work, protecting the user cluster (§6.2 "throttling"). rps<=0 removes
// the throttle.
func (g *Gateway) Throttle(id uint64, rps, burst float64) error {
	s, ok := g.services[id]
	if !ok {
		return fmt.Errorf("gateway: unknown service %d", id)
	}
	if rps <= 0 {
		s.Throttle = nil
		return nil
	}
	s.Throttle = l7.NewTokenBucket(rps, burst)
	return nil
}

// RollingUpgrade performs a version update across all regular backends the
// way §5.5 describes ("the version update takes about 4 hours as it
// involves rolling upgrades of machines"): one replica at a time goes down
// for perReplica, spaced so the whole fleet finishes within total. Backends
// always keep at least one replica up, so no service sees an outage. done
// (optional) fires when the last replica returns.
func (g *Gateway) RollingUpgrade(total, perReplica time.Duration, done func()) error {
	var replicas []*Replica
	for _, b := range g.backends {
		if len(b.Replicas) < 2 {
			return fmt.Errorf("gateway: backend %s has a single replica; rolling upgrade would cause an outage", b.ID)
		}
		replicas = append(replicas, b.Replicas...)
	}
	if len(replicas) == 0 {
		return fmt.Errorf("gateway: nothing to upgrade")
	}
	gap := total / time.Duration(len(replicas))
	if gap < perReplica {
		return fmt.Errorf("gateway: %d replicas at %v each do not fit in %v", len(replicas), perReplica, total)
	}
	for i, r := range replicas {
		r := r
		start := time.Duration(i) * gap
		last := i == len(replicas)-1
		g.cfg.Sim.After(start, func() {
			r.VM.Fail()
			g.cfg.Sim.After(perReplica, func() {
				r.VM.Recover()
				if last && done != nil {
					done()
				}
			})
		})
	}
	return nil
}

// MoveService transparently migrates a service's configuration from one
// regular backend to another (the service-migration event of the cloud
// infrastructure experiment). New traffic resolves to the target
// immediately.
func (g *Gateway) MoveService(id uint64, from, to *Backend) error {
	s, ok := g.services[id]
	if !ok {
		return fmt.Errorf("gateway: unknown service %d", id)
	}
	if !from.HostsService(id) {
		return fmt.Errorf("gateway: %s does not host service %d", from.ID, id)
	}
	if to.Sandbox {
		return fmt.Errorf("gateway: MoveService cannot target a sandbox")
	}
	g.installOn(s, to)
	g.removeFrom(s, from)
	return nil
}

// FailBackend fails every replica VM of a backend.
func (g *Gateway) FailBackend(b *Backend) {
	for _, r := range b.Replicas {
		r.VM.Fail()
	}
}
