package gateway

import (
	"fmt"
	"time"

	"canalmesh/internal/l7"
	"canalmesh/internal/telemetry"
)

// MigrationMode selects how a service moves to a sandbox (§6.2).
type MigrationMode int

const (
	// Lossy resets all sessions and reconstructs them in the sandbox
	// within seconds.
	Lossy MigrationMode = iota
	// Lossless moves only new sessions to the sandbox; existing sessions
	// drain naturally (median ~20 min).
	Lossless
)

// String names the mode.
func (m MigrationMode) String() string {
	if m == Lossy {
		return "lossy"
	}
	return "lossless"
}

// Durations of the two migration modes, matching §6.2: lossy completes in
// seconds; lossless waits for existing flows to age out (median ~20min).
const (
	LossyMigrationTime    = 3 * time.Second
	LosslessMigrationTime = 20 * time.Minute
)

// MigrateToSandbox moves a service into a sandbox backend. done (optional)
// fires when the migration completes. Lossy migration resets the service's
// sessions immediately; lossless leaves them to drain.
func (g *Gateway) MigrateToSandbox(id uint64, mode MigrationMode, done func()) error {
	s, ok := g.services[id]
	if !ok {
		return fmt.Errorf("gateway: unknown service %d", id)
	}
	if len(g.sandboxes) == 0 {
		return fmt.Errorf("gateway: no sandbox backends provisioned")
	}
	if s.Sandboxed {
		return fmt.Errorf("gateway: service %s already sandboxed", s.FullName())
	}
	sb := g.sandboxes[int(id)%len(g.sandboxes)]
	sb.services[s.ID] = true
	if sb.RPSSeries[s.ID] == nil {
		sb.RPSSeries[s.ID] = telemetry.NewSeries(fmt.Sprintf("%s@%s", s.FullName(), sb.ID))
	}
	var wait time.Duration
	switch mode {
	case Lossy:
		s.Sessions = 0 // sessions reset and reconstruct in the sandbox
		wait = LossyMigrationTime
	case Lossless:
		wait = LosslessMigrationTime
	}
	// New traffic resolves to the sandbox from now on.
	s.Sandboxed = true
	g.cfg.Sim.After(wait, func() {
		if done != nil {
			done()
		}
	})
	return nil
}

// ReleaseFromSandbox returns a service to its normal backends.
func (g *Gateway) ReleaseFromSandbox(id uint64) error {
	s, ok := g.services[id]
	if !ok {
		return fmt.Errorf("gateway: unknown service %d", id)
	}
	if !s.Sandboxed {
		return fmt.Errorf("gateway: service %s not sandboxed", s.FullName())
	}
	s.Sandboxed = false
	for _, sb := range g.sandboxes {
		delete(sb.services, id)
	}
	return nil
}

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
		return fmt.Errorf("gateway: MoveService cannot target a sandbox; use MigrateToSandbox")
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
