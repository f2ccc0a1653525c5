package gateway

import (
	"fmt"

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
